#include "astore/append_ring.h"

#include <algorithm>

#include "astore/client.h"

namespace vedb::astore {

AppendRing::AppendRing(AStoreClient* client, const AppendRingOptions& options)
    : client_(client),
      options_(options),
      cond_(client->env()->clock(), "astore.append_ring") {}

Result<AppendRing::Token> AppendRing::Submit(SegmentHandlePtr handle,
                                             std::vector<RecordPiece> pieces) {
  if (handle == nullptr || pieces.empty()) {
    return Status::InvalidArgument("empty record submission");
  }
  uint64_t bytes = 0;
  for (const RecordPiece& p : pieces) {
    if (p.data.empty() || p.offset > handle->size() ||
        p.data.size() > handle->size() - p.offset) {
      return Status::InvalidArgument("record piece outside the segment");
    }
    bytes += p.data.size();
  }
  Entry e;
  e.handle = std::move(handle);
  e.pieces = std::move(pieces);
  e.bytes = bytes;
  vedb::MutexLock lk(&mu_);
  e.seq = next_seq_++;
  const Token token = e.seq;
  pending_bytes_ += e.bytes;
  pending_.push_back(std::move(e));
  return token;
}

Status AppendRing::Wait(Token token) {
  sim::VirtualClock* clock = client_->env()->clock();
  vedb::MutexLock lk(&mu_);
  while (true) {
    auto it = done_.find(token);
    if (it != done_.end()) {
      Status s = std::move(it->second);
      done_.erase(it);
      return s;
    }
    if (flushing_ || pending_.empty()) {
      // Follower: a leader is posting (possibly carrying our token), or our
      // token already left the queue with it. Park until our result lands
      // or the ring goes idle — waiting on !flushing_ alone would wedge a
      // completed waiter behind the NEXT leader's flush, serializing
      // producers that should be feeding that leader's doorbell.
      cond_.Wait(&mu_, [&] { return !flushing_ || done_.count(token) != 0; });
      continue;
    }

    // Leader. Optionally linger so concurrent producers can join this
    // doorbell; the ring stays marked busy, so late submissions queue
    // behind us instead of racing a second flush.
    flushing_ = true;
    if (options_.nagle_window > 0 &&
        pending_bytes_ < options_.batch_byte_cap) {
      lk.Unlock();
      clock->SleepFor(options_.nagle_window);
      lk.Lock();
    }
    std::deque<Entry> batch;
    batch.swap(pending_);
    pending_bytes_ = 0;
    lk.Unlock();

    // Split the drained run into groups of consecutive same-segment
    // records, capped by bytes and record count; each group posts as one
    // chained-WR doorbell. Submission order is preserved throughout, so
    // completions resolve in LSN order for in-order producers.
    std::vector<std::pair<Token, Status>> results;
    results.reserve(batch.size());
    size_t i = 0;
    while (i < batch.size()) {
      size_t j = i;
      uint64_t group_bytes = 0;
      while (j < batch.size() && batch[j].handle == batch[i].handle &&
             j - i < options_.max_batch_records &&
             (j == i ||
              group_bytes + batch[j].bytes <= options_.batch_byte_cap)) {
        group_bytes += batch[j].bytes;
        ++j;
      }
      std::vector<const std::vector<RecordPiece>*> records;
      records.reserve(j - i);
      for (size_t k = i; k < j; ++k) records.push_back(&batch[k].pieces);
      const Status s = client_->WriteRecordGroup(batch[i].handle, records);
      for (size_t k = i; k < j; ++k) results.emplace_back(batch[k].seq, s);
      i = j;
    }
    lk.Lock();
    for (auto& [seq, s] : results) done_.emplace(seq, std::move(s));
    flushing_ = false;
    lk.Unlock();
    cond_.NotifyAll();
    lk.Lock();
  }
}

}  // namespace vedb::astore
