#include "engine/buffer_pool.h"

#include "common/logging.h"
#include "engine/page.h"

namespace vedb::engine {

BufferPool::BufferPool(sim::SimEnvironment* env, sim::SimNode* node,
                       const Options& options, Callbacks callbacks)
    : env_(env),
      node_(node),
      options_(options),
      callbacks_(std::move(callbacks)),
      load_cond_(env->clock(), "bp-load") {}

BufferPool::Stats BufferPool::stats() const {
  vedb::MutexLock lk(&mu_);
  return stats_;
}

size_t BufferPool::ResidentPages() const {
  vedb::MutexLock lk(&mu_);
  return frames_.size();
}

bool BufferPool::IsResident(uint64_t key) const {
  vedb::MutexLock lk(&mu_);
  auto it = frames_.find(key);
  return it != frames_.end() && !it->second->loading;
}

void BufferPool::EvictIfNeededLocked() {
  while (frames_.size() > options_.capacity_pages) {
    // Pick the least-recent unpinned page.
    Frame* victim = nullptr;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      auto fit = frames_.find(*it);
      VEDB_CHECK(fit != frames_.end(), "LRU/frame map out of sync");
      Frame* f = fit->second.get();
      if (f->pins == 0 && !f->loading) {
        victim = f;
        break;
      }
    }
    if (victim == nullptr) return;  // everything pinned: allow overshoot
    // Detach from the LRU but keep the frame resident while we fence and
    // hand the image to the EBP; concurrent Pins can rescue it.
    pinned_.splice(pinned_.end(), lru_, victim->lru_it);
    victim->in_lru = false;
    victim->pins = 1;  // eviction holds a pin so the frame cannot vanish
    const uint64_t key = victim->key;

    mu_.Unlock();
    uint64_t lsn;
    bool dirty;
    std::string image;
    {
      vedb::MutexLock flk(&victim->mu);
      lsn = victim->lsn;
      dirty = victim->dirty;
      image = victim->image;
    }
    // Log-is-database: never write the page back; just make sure its REDO
    // reached the PageStore quorum, then cache the image in the EBP.
    if (dirty && callbacks_.ensure_shipped) callbacks_.ensure_shipped(lsn);
    if (callbacks_.ebp_put) callbacks_.ebp_put(key, lsn, Slice(image));
    mu_.Lock();

    victim->pins--;
    if (victim->pins == 0) {
      // No one rescued it: drop the frame.
      stats_.evictions++;
      pinned_.erase(victim->lru_it);
      frames_.erase(key);
    } else {
      // Rescued by a concurrent Pin; it is pinned and off the LRU, which is
      // exactly the state a pinned frame should be in.
    }
  }
}

Result<Frame*> BufferPool::Pin(uint64_t key, bool create_if_missing) {
  node_->cpu()->Access(0, options_.access_cpu_cost);

  vedb::MutexLock lk(&mu_);
  while (true) {
    auto it = frames_.find(key);
    if (it != frames_.end()) {
      Frame* f = it->second.get();
      if (f->loading) {
        std::shared_ptr<Frame> fp = it->second;  // keep alive across waits
        load_cond_.Wait(&mu_, [&fp] { return !fp->loading; });
        continue;  // re-examine (load may have failed and erased the frame)
      }
      f->pins++;
      if (f->in_lru) {
        pinned_.splice(pinned_.end(), lru_, f->lru_it);
        f->in_lru = false;
      }
      stats_.hits++;
      return f;
    }

    // Miss: install a loading placeholder, make room, then fetch outside
    // the lock.
    auto frame = std::make_shared<Frame>();
    Frame* f = frame.get();
    f->key = key;
    f->loading = true;
    f->pins = 1;
    f->lru_it = pinned_.insert(pinned_.end(), key);
    frames_[key] = std::move(frame);
    EvictIfNeededLocked();

    lk.Unlock();
    std::string image;
    uint64_t lsn = 0;
    Status s = Status::NotFound("no source");
    bool from_ebp = false;
    if (callbacks_.ebp_get) {
      s = callbacks_.ebp_get(key, &image, &lsn);
      from_ebp = s.ok();
    }
    if (!s.ok() && callbacks_.pagestore_read) {
      s = callbacks_.pagestore_read(key, &image, &lsn);
    }
    bool created = false;
    if (s.IsNotFound() && create_if_missing) {
      Page::Format(&image);
      lsn = 0;
      created = true;
      s = Status::OK();
    }
    lk.Lock();

    if (!s.ok()) {
      f->loading = false;  // before erase: waiters hold shared_ptr copies
      pinned_.erase(f->lru_it);
      frames_.erase(key);
      lk.Unlock();
      load_cond_.NotifyAll();
      return s;
    }
    {
      vedb::MutexLock flk(&f->mu);
      f->image = std::move(image);
      f->lsn = lsn;
    }
    f->loading = false;
    if (from_ebp) {
      stats_.ebp_hits++;
    } else if (created) {
      stats_.created++;
    } else {
      stats_.pagestore_reads++;
    }
    lk.Unlock();
    load_cond_.NotifyAll();
    return f;
  }
}

void BufferPool::Unpin(Frame* frame, uint64_t modified_lsn) {
  vedb::MutexLock lk(&mu_);
  if (modified_lsn != 0) {
    vedb::MutexLock flk(&frame->mu);
    frame->dirty = true;
    if (modified_lsn > frame->lsn) frame->lsn = modified_lsn;
  }
  frame->pins--;
  VEDB_CHECK(frame->pins >= 0, "unpin without pin");
  if (frame->pins == 0 && !frame->in_lru) {
    lru_.splice(lru_.begin(), pinned_, frame->lru_it);
    frame->in_lru = true;
  }
}

}  // namespace vedb::engine
