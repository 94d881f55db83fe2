#ifndef HERMES_SERVICE_WAL_PAYLOADS_H_
#define HERMES_SERVICE_WAL_PAYLOADS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/statusor.h"
#include "traj/trajectory_io.h"
#include "traj/trajectory_store.h"
#include "wal/wal.h"

namespace hermes::service {

/// \brief One catalog change: what one WAL record says, and what
/// `Server::Apply` does with it, live and on replay.
struct CatalogRecord {
  CatalogRecord(wal::RecordType t, std::string m,
                std::vector<traj::Trajectory> batch = {},
                traj::TrajectoryStore s = {})
      : type(t), mod(std::move(m)), trajectories(std::move(batch)),
        store(std::move(s)) {}

  wal::RecordType type;
  std::string mod;                             ///< Canonical MOD key.
  std::vector<traj::Trajectory> trajectories;  ///< kInsertBatch: appended.
  traj::TrajectoryStore store;                 ///< kSwapStore: new contents.
};

/// A name as u16 length + bytes: the head of every record payload, and
/// the string format of the checkpoint manifest.
inline void EncodeModName(const std::string& name, std::string* out) {
  PutFixed16(out, static_cast<uint16_t>(name.size()));
  out->append(name);
}

inline StatusOr<std::string> DecodeModName(Decoder* dec) {
  if (dec->remaining() < 2) return Status::Corruption("truncated name length");
  const uint16_t n = dec->ReadFixed16();
  if (dec->remaining() < n) return Status::Corruption("truncated name");
  std::string name(dec->data(), n);
  dec->Skip(n);
  return name;
}

/// The record's WAL payload: the MOD name, then for an insert its batch
/// and for a swap its store, both in the trajectory_io batch encoding
/// (so WAL replay and checkpoint store files share one format).
inline std::string EncodePayload(const CatalogRecord& rec) {
  std::string out;
  EncodeModName(rec.mod, &out);
  if (rec.type == wal::RecordType::kInsertBatch) {
    traj::EncodeTrajectories(rec.trajectories, &out);
  } else if (rec.type == wal::RecordType::kSwapStore) {
    traj::EncodeStore(rec.store, &out);
  }
  return out;
}

inline StatusOr<CatalogRecord> DecodePayload(const wal::Record& rec) {
  Decoder dec(rec.payload);
  HERMES_ASSIGN_OR_RETURN(std::string mod, DecodeModName(&dec));
  CatalogRecord out(rec.type, std::move(mod));
  if (rec.type == wal::RecordType::kInsertBatch) {
    HERMES_ASSIGN_OR_RETURN(out.trajectories, traj::DecodeTrajectories(&dec));
  } else if (rec.type == wal::RecordType::kSwapStore) {
    HERMES_ASSIGN_OR_RETURN(out.store, traj::DecodeStore(&dec));
  } else if (rec.type != wal::RecordType::kCreateMod &&
             rec.type != wal::RecordType::kDropMod) {
    return Status::Corruption("unknown WAL record type " +
                              std::to_string(static_cast<int>(rec.type)));
  }
  return out;
}

}  // namespace hermes::service

#endif  // HERMES_SERVICE_WAL_PAYLOADS_H_
