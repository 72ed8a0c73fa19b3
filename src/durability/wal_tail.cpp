#include "durability/wal_tail.hpp"

#include <algorithm>

namespace parspan {

bool read_wal_range(Fs& fs, const std::string& dir, uint64_t from, uint64_t to,
                    std::vector<WalRecord>* out) {
  out->clear();
  if (from >= to) return from == to;
  // Anchor at the newest segment whose base covers `from`: segment base b
  // holds versions (b, next-base]. A missing anchor means the history
  // below `from` was GC'd past the ack point.
  std::vector<uint64_t> bases;
  for (const std::string& name : fs.list(dir))
    if (auto b = parse_wal_file_name(name)) bases.push_back(*b);
  std::sort(bases.begin(), bases.end());
  auto it = std::upper_bound(bases.begin(), bases.end(), from);
  if (it == bases.begin()) return false;
  --it;

  uint64_t cur = from;
  for (; it != bases.end() && cur < to; ++it) {
    WalSegment seg = read_wal_segment(fs, dir + "/" + wal_file_name(*it));
    if (!seg.header_ok || seg.base_version > cur) return false;
    for (WalRecord& rec : seg.records) {
      if (rec.version <= cur) continue;
      if (rec.version != cur + 1) return false;
      cur = rec.version;
      out->push_back(std::move(rec));
      if (cur == to) return true;
    }
    // A torn tail mid-chain cannot be bridged by a later segment: its
    // missing records are gone (`cur < to` here since we didn't return).
    if (seg.truncated_tail) return false;
  }
  return cur == to;
}

}  // namespace parspan
