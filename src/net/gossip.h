// Anti-entropy gossip state with equivocation detection.
//
// Paper §3.2/§3.6: after an AS publishes a signed commitment (root hash),
// "the neighbors can gossip about the hash value to ensure that they all
// have the same view". A correct AS publishes exactly one value per topic;
// two distinct signed values for the same topic *are* the evidence of
// equivocation. This class tracks observed values per topic and surfaces
// conflicts; the PVR verifier nodes relay observations to each other over
// whatever net::Transport backend the world runs on (simulated, replayed,
// or lockstep-multiprocess — the relay logic never sees the difference).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pvr::net {

class GossipState {
 public:
  struct Conflict {
    std::string topic;
    std::vector<std::vector<std::uint8_t>> values;  // all distinct values seen
  };

  // Records that `value` was observed for `topic`. Returns true when the
  // value is new (and therefore worth relaying to other neighbors).
  bool observe(const std::string& topic, std::vector<std::uint8_t> value);

  [[nodiscard]] const std::set<std::vector<std::uint8_t>>& values(
      const std::string& topic) const;

  // Nonempty when two or more distinct values exist for `topic`.
  [[nodiscard]] std::optional<Conflict> conflict_for(const std::string& topic) const;
  [[nodiscard]] std::vector<Conflict> all_conflicts() const;

  [[nodiscard]] std::size_t topic_count() const noexcept { return by_topic_.size(); }

 private:
  std::map<std::string, std::set<std::vector<std::uint8_t>>> by_topic_;
};

// Wire format helpers for gossip announcements.
[[nodiscard]] std::vector<std::uint8_t> encode_gossip(const std::string& topic,
                                                      const std::vector<std::uint8_t>& value);
struct GossipAnnouncement {
  std::string topic;
  std::vector<std::uint8_t> value;
};
[[nodiscard]] GossipAnnouncement decode_gossip(const std::vector<std::uint8_t>& payload);

}  // namespace pvr::net
