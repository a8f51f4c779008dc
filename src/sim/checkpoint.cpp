#include "sim/checkpoint.hpp"

#include <fstream>
#include <sstream>

#include "sim/engine.hpp"
#include "util/binio.hpp"
#include "util/check.hpp"

namespace hp::sim {

/// Friend of Engine: serializes the private counters and state sections.
/// Everything not written here is per-step scratch the engine rebuilds
/// from scratch-free state at the next step() call.
class CheckpointIO {
 public:
  static void save(const Engine& e, std::ostream& out) {
    util::BinWriter w(out);
    w.u32(kCheckpointMagic);
    w.u32(kCheckpointVersion);

    // Header: what run this checkpoint belongs to. Restore refuses any
    // mismatch — resuming on a different topology/policy/seed would
    // silently compute a different experiment.
    w.str(e.net_.name());
    w.u64(e.num_nodes_);
    w.u32(static_cast<std::uint32_t>(e.net_.num_dirs()));
    w.str(e.policy_.name());
    w.u64(e.config_.seed);

    write_state(e, w);
    w.write_digest_trailer();
    HP_REQUIRE(w.good(), "checkpoint write failed (stream error)");
  }

  static void restore(Engine& e, std::istream& in) {
    HP_REQUIRE(e.now_ == 0 && e.next_id_ == 0 && e.flight_.empty() &&
                   e.archive_.count() == 0,
               "restore_checkpoint needs a freshly constructed engine (no "
               "steps run, no packets injected)");

    util::BinReader r(in, "checkpoint");
    HP_REQUIRE(r.u32() == kCheckpointMagic,
               "not a checkpoint file (bad magic)");
    const std::uint32_t version = r.u32();
    HP_REQUIRE(version == kCheckpointVersion,
               "unsupported checkpoint version " + std::to_string(version) +
                   " (this build reads version " +
                   std::to_string(kCheckpointVersion) + ")");

    const std::string net_name = r.str();
    HP_REQUIRE(net_name == e.net_.name(),
               "checkpoint was written for network '" + net_name +
                   "' but this engine runs on '" + e.net_.name() + "'");
    const std::uint64_t nodes = r.u64();
    const std::uint32_t dirs = r.u32();
    HP_REQUIRE(nodes == e.num_nodes_ &&
                   dirs == static_cast<std::uint32_t>(e.net_.num_dirs()),
               "checkpoint topology shape does not match this engine");
    const std::string policy_name = r.str();
    HP_REQUIRE(policy_name == e.policy_.name(),
               "checkpoint was written under policy '" + policy_name +
                   "' but this engine runs '" + e.policy_.name() + "'");
    const std::uint64_t seed = r.u64();
    HP_REQUIRE(seed == e.config_.seed,
               "checkpoint seed " + std::to_string(seed) +
                   " does not match engine seed " +
                   std::to_string(e.config_.seed));

    e.next_id_ = r.u64();
    e.delivered_ = r.u64();
    e.now_ = r.u64();
    e.last_arrival_ = r.u64();
    e.total_deflections_ = r.u64();
    e.total_advances_ = r.u64();
    e.livelocked_ = r.u8() != 0;
    e.flight_.deserialize(r, e.next_id_);
    // step() indexes by pos and dst, and policies by the entry arc, all
    // unchecked: reject packets off this network or already home.
    const auto on_net = [nodes](net::NodeId v) {
      return v >= 0 && static_cast<std::uint64_t>(v) < nodes;
    };
    for (FlightTable::Slot s = 0; s < e.flight_.end_slot(); ++s) {
      const Packet p = e.flight_.materialize(s);
      HP_REQUIRE(on_net(p.src) && on_net(p.dst) && on_net(p.pos) &&
                     p.pos != p.dst && p.last_move_dir >= net::kInvalidDir &&
                     p.last_move_dir < static_cast<int>(dirs),
                 "checkpoint is corrupt (an in-flight packet is off the "
                 "network or already delivered)");
    }
    e.archive_.deserialize(r, e.next_id_);
    e.livelock_.deserialize(r);
    r.verify_digest_trailer();
  }

  static std::uint64_t fingerprint(const Engine& e) {
    // Digest the state sections through a BinWriter over a scratch
    // stream: the fingerprint is exactly the FNV-1a hash the checkpoint
    // trailer would carry, minus the header.
    std::ostringstream sink;
    util::BinWriter w(sink);
    write_counters(e, w);
    e.flight_.serialize(w);
    w.u64(e.archive_.count());
    // Records a count-only archive dropped: keeps the pinned byte layout.
    w.u64(e.archive_.keeps_records() ? 0 : e.archive_.count());
    for (const Packet& p : e.archive_.records()) write_packet_record(w, p);
    return w.digest();
  }

 private:
  static void write_counters(const Engine& e, util::BinWriter& w) {
    w.u64(e.next_id_);
    w.u64(e.delivered_);
    w.u64(e.now_);
    w.u64(e.last_arrival_);
    w.u64(e.total_deflections_);
    w.u64(e.total_advances_);
    w.u8(e.livelocked_ ? 1 : 0);
  }

  static void write_state(const Engine& e, util::BinWriter& w) {
    write_counters(e, w);
    e.flight_.serialize(w);
    e.archive_.serialize(w);
    e.livelock_.serialize(w);
  }
};

void save_checkpoint(const Engine& engine, std::ostream& out) {
  CheckpointIO::save(engine, out);
}

void save_checkpoint(const Engine& engine, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HP_REQUIRE(out.good(), "cannot create checkpoint file " + path);
  CheckpointIO::save(engine, out);
  out.flush();
  HP_REQUIRE(out.good(), "write to checkpoint file " + path + " failed");
}

void restore_checkpoint(Engine& engine, std::istream& in) {
  CheckpointIO::restore(engine, in);
}

void restore_checkpoint(Engine& engine, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HP_REQUIRE(in.good(), "cannot open checkpoint file " + path);
  CheckpointIO::restore(engine, in);
}

std::uint64_t state_fingerprint(const Engine& engine) {
  return CheckpointIO::fingerprint(engine);
}

}  // namespace hp::sim
