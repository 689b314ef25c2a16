#include "index/block_cursor.h"

#include <memory>

#include "common/logging.h"
#include "common/obs.h"

namespace tix::index {

void BlockCursor::Load(size_t i) {
  // Reaching here with a decoded (or null) list would mean an
  // out-of-range index: the ctor's window already spans those entirely.
  TIX_CHECK(list_ != nullptr && list_->is_compressed() && i < size_);
  const uint32_t block = static_cast<uint32_t>(i / kSkipInterval);
  obs::Count(obs::Counter::kIndexBlocksScanned);
  DecodedBlockCache& cache = DecodedBlockCache::Instance();
  DecodedBlockHandle handle = cache.Lookup(list_->cache_id, block);
  if (handle == nullptr) {
    auto fresh = std::make_shared<DecodedBlock>();
    const Status status = list_->DecodeBlock(block, fresh->postings.data());
    // The list was validated when compressed/loaded, so decoding the
    // same bytes again cannot fail; a failure here is memory corruption
    // or API misuse, not bad input.
    TIX_CHECK(status.ok()) << status.ToString();
    obs::Count(obs::Counter::kIndexBlocksDecoded);
    handle = cache.Insert(list_->cache_id, block, std::move(fresh));
  } else {
    obs::Count(obs::Counter::kIndexBlockCacheHits);
  }
  pinned_ = std::move(handle);
  data_ = pinned_->postings.data();
  window_begin_ = static_cast<size_t>(block) * kSkipInterval;
  window_len_ = list_->BlockPostingCount(block);
}

}  // namespace tix::index
