#include "core/locality.h"

namespace cwc::core {

void ChunkLocalityIndex::set_manifest(JobId job, std::vector<ChunkId> chunks) {
  manifests_[job] = std::move(chunks);
}

void ChunkLocalityIndex::clear_manifest(JobId job) { manifests_.erase(job); }

void ChunkLocalityIndex::attach_directory(PhoneId phone, const ChunkDirectory* directory) {
  directories_[phone] = directory;
}

void ChunkLocalityIndex::detach_directory(PhoneId phone) { directories_.erase(phone); }

Kilobytes ChunkLocalityIndex::cached_kb(JobId job, PhoneId phone) const {
  // The phone first: its directory map is small, and a fleet without
  // caches (the common case) answers every (job, phone) pair of a build
  // here, without a search of the per-job manifests.
  const auto dit = directories_.find(phone);
  if (dit == directories_.end() || dit->second == nullptr || !dit->second->enabled()) return 0.0;
  const auto mit = manifests_.find(job);
  if (mit == manifests_.end()) return 0.0;
  std::uint64_t bytes = 0;
  for (const ChunkId id : mit->second) {
    if (dit->second->contains(id)) bytes += chunk_size_of(id);
  }
  return static_cast<Kilobytes>(bytes) / 1024.0;
}

}  // namespace cwc::core
