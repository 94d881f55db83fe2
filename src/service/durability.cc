/// \file
/// \brief The durable side of service::Server: WAL logging helpers,
/// checkpointing, and crash recovery.
///
/// On-disk layout under `ServerOptions.wal_dir`:
///
///     wal_000001.log          WAL segments (wal/wal.h record format)
///     ckpt_000003_SHIPS.store checkpointed store, one per MOD
///     MANIFEST                current checkpoint (atomic rename publish)
///
/// Blob files (manifest + store files) are self-validating:
/// u32 magic, u32 version, u32 CRC-32 over the payload, payload. A torn
/// or half-written blob fails its CRC and is treated as absent — which
/// is safe because blobs only become *reachable* through the MANIFEST
/// rename, itself atomic.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/coding.h"
#include "common/crc32.h"
#include "service/server.h"
#include "service/wal_payloads.h"
#include "traj/trajectory_io.h"

namespace hermes::service {

namespace {

constexpr uint32_t kManifestMagic = 0x484D414E;  // "HMAN"
constexpr uint32_t kStoreMagic = 0x48434B50;     // "HCKP"
constexpr uint32_t kBlobVersion = 1;
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestTmpName[] = "MANIFEST.tmp";

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

std::string CkptStoreFileName(uint64_t ckpt_id, const std::string& key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt_%06llu_",
                static_cast<unsigned long long>(ckpt_id));
  return buf + key + ".store";
}

/// Parses "ckpt_<id>_<key>.store"; false for anything else.
bool ParseCkptFileName(const std::string& name, uint64_t* ckpt_id) {
  if (name.rfind("ckpt_", 0) != 0 || name.size() < 13 ||
      name.substr(name.size() - 6) != ".store") {
    return false;
  }
  const std::string digits = name.substr(5, 6);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *ckpt_id = std::stoull(digits);
  return true;
}

/// Writes magic/version/crc + payload and syncs. Deletes any stale file
/// at `path` first (a crashed earlier attempt must not leave its tail
/// behind a shorter rewrite).
Status WriteBlobFile(storage::Env* env, const std::string& path,
                     uint32_t magic, const std::string& payload) {
  if (env->FileExists(path)) {
    HERMES_RETURN_NOT_OK(env->DeleteFile(path));
  }
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<storage::RandomRWFile> file,
                          env->NewRWFile(path));
  std::string data;
  data.reserve(12 + payload.size());
  PutFixed32(&data, magic);
  PutFixed32(&data, kBlobVersion);
  PutFixed32(&data, common::Crc32(payload));
  data.append(payload);
  HERMES_RETURN_NOT_OK(file->WriteAt(0, data.size(), data.data()));
  return file->Sync();
}

StatusOr<std::string> ReadBlobFile(storage::Env* env, const std::string& path,
                                   uint32_t magic) {
  HERMES_ASSIGN_OR_RETURN(std::unique_ptr<storage::RandomRWFile> file,
                          env->NewRWFile(path));
  HERMES_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size < 12) return Status::Corruption(path + ": truncated header");
  std::string data(size, '\0');
  HERMES_RETURN_NOT_OK(file->ReadAt(0, size, data.data()));
  if (GetFixed32(data.data()) != magic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (GetFixed32(data.data() + 4) != kBlobVersion) {
    return Status::Corruption(path + ": unsupported version");
  }
  std::string payload = data.substr(12);
  if (GetFixed32(data.data() + 8) != common::Crc32(payload)) {
    return Status::Corruption(path + ": payload CRC mismatch");
  }
  return payload;
}

void PutString(std::string* out, const std::string& s) {
  PutFixed16(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

StatusOr<std::string> ReadString(Decoder* dec) {
  if (dec->remaining() < 2) return Status::Corruption("truncated string");
  const uint16_t n = dec->ReadFixed16();
  if (dec->remaining() < n) return Status::Corruption("truncated string");
  std::string s(dec->data(), n);
  dec->Skip(n);
  return s;
}

/// Per-MOD checkpoint metadata, as recorded in the manifest. QUT trees
/// are caches rebuilt on demand, so none is recorded; each entry still
/// carries the tree fields of older manifests (written as "no tree"),
/// which the decoder skips.
struct ModMeta {
  std::string name;        ///< Canonical MOD key.
  std::string store_file;  ///< File name (within wal_dir) of the store.
};

struct Manifest {
  uint64_t checkpoint_id = 0;
  uint64_t wal_start_segment = 1;  ///< Replay floor (segments below died).
  uint64_t next_lsn = 1;           ///< First LSN after the checkpoint.
  uint64_t gen = 0;                ///< Recovery generation that wrote it.
  std::vector<ModMeta> mods;
};

std::string EncodeManifest(const Manifest& m) {
  std::string out;
  PutFixed64(&out, m.checkpoint_id);
  PutFixed64(&out, m.wal_start_segment);
  PutFixed64(&out, m.next_lsn);
  PutFixed64(&out, m.gen);
  PutFixed32(&out, static_cast<uint32_t>(m.mods.size()));
  for (const ModMeta& mod : m.mods) {
    PutString(&out, mod.name);
    PutString(&out, mod.store_file);
    out.push_back(0);     // has_tree
    PutFixed64(&out, 0);  // tree_seq
  }
  return out;
}

StatusOr<Manifest> DecodeManifest(const std::string& payload) {
  Decoder dec(payload);
  if (dec.remaining() < 36) return Status::Corruption("manifest too short");
  Manifest m;
  m.checkpoint_id = dec.ReadFixed64();
  m.wal_start_segment = dec.ReadFixed64();
  m.next_lsn = dec.ReadFixed64();
  m.gen = dec.ReadFixed64();
  const uint32_t nmods = dec.ReadFixed32();
  for (uint32_t i = 0; i < nmods; ++i) {
    ModMeta mod;
    HERMES_ASSIGN_OR_RETURN(mod.name, ReadString(&dec));
    HERMES_ASSIGN_OR_RETURN(mod.store_file, ReadString(&dec));
    if (dec.remaining() < 1) return Status::Corruption("manifest truncated");
    const bool has_tree = *dec.data() != 0;
    dec.Skip(1);
    if (has_tree) {
      // An older manifest's tree: directory, 5 params, consumed count.
      HERMES_RETURN_NOT_OK(ReadString(&dec).status());
      if (dec.remaining() < 5 * 8 + 8) {
        return Status::Corruption("manifest truncated (tree meta)");
      }
      dec.Skip(5 * 8 + 8);
    }
    if (dec.remaining() < 8) return Status::Corruption("manifest truncated");
    dec.Skip(8);  // tree_seq
    m.mods.push_back(std::move(mod));
  }
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// WAL logging
// ---------------------------------------------------------------------------

Status Server::WalAppend(wal::RecordType type, const std::string& payload) {
  if (wal_ == nullptr) return Status::OK();
  HERMES_RETURN_NOT_OK(wal_error_);
  auto lsn = wal_->Append(type, payload);
  if (!lsn.ok()) {
    wal_error_ = lsn.status();
    wal_failed_.store(true, std::memory_order_relaxed);
    wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return lsn.status();
  }
  wal_records_appended_.fetch_add(1, std::memory_order_relaxed);
  // 17 = len + crc + lsn + type framing around the payload.
  wal_bytes_appended_.fetch_add(payload.size() + 17,
                                std::memory_order_relaxed);
  return Status::OK();
}

Status Server::WalSync() {
  if (wal_ == nullptr) return Status::OK();
  HERMES_RETURN_NOT_OK(wal_error_);
  Status st = wal_->Sync();
  if (!st.ok()) {
    // A failed fsync means the kernel may or may not have persisted the
    // appended records — the durable prefix is unknowable from here, so
    // the server goes read-only and recovery decides from what is
    // actually on disk.
    wal_error_ = st;
    wal_failed_.store(true, std::memory_order_relaxed);
    wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  wal_syncs_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Server::WalLogAndSync(wal::RecordType type,
                             const std::string& payload) {
  HERMES_RETURN_NOT_OK(WalAppend(type, payload));
  return WalSync();
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

Status Server::Checkpoint() {
  if (!durable()) {
    return Status::NotSupported(
        "CHECKPOINT requires a WAL-enabled server (ServerOptions.wal_dir)");
  }
  const std::string& dir = options_.wal_dir;
  common::MutexLock wal_lock(&wal_mu_);
  HERMES_RETURN_NOT_OK(wal_error_);

  // Everything WAL-logged is applied by now (append and apply share the
  // wal_mu_ window), so the in-memory catalog IS the durable-prefix
  // state; persisting it and cutting the WAL at the current LSN loses
  // nothing.
  Manifest m;
  m.checkpoint_id = checkpoint_id_ + 1;
  m.gen = gen_;

  std::vector<std::pair<std::string, std::shared_ptr<SharedMod>>> mods;
  {
    common::MutexLock lock(&catalog_mu_);
    for (const auto& [key, mod] : mods_) mods.emplace_back(key, mod);
  }
  for (const auto& [key, mod] : mods) {
    // Shared: only the store is read, and wal_mu_ keeps every writer of
    // it out; QUT readers may go on meanwhile.
    common::ReaderMutexLock rlock(&mod->mu);
    ModMeta meta;
    meta.name = key;
    meta.store_file = CkptStoreFileName(m.checkpoint_id, key);
    std::string payload;
    traj::EncodeStore(mod->store, &payload);
    HERMES_RETURN_NOT_OK(
        WriteBlobFile(env_, JoinPath(dir, meta.store_file), kStoreMagic,
                      payload));
    m.mods.push_back(std::move(meta));
  }

  // Rotate the WAL before publishing: the manifest names the fresh
  // segment as its replay floor, and every post-checkpoint record lands
  // there. If anything below fails, the OLD manifest stays in force —
  // and because replay walks all segments >= its (old) floor in id
  // order, records already written to the fresh segment are still
  // recovered.
  const uint64_t fresh_segment = wal_->segment_id() + 1;
  m.wal_start_segment = fresh_segment;
  m.next_lsn = wal_->next_lsn();
  HERMES_ASSIGN_OR_RETURN(
      wal_, wal::Writer::Open(env_, dir, fresh_segment, m.next_lsn));

  HERMES_RETURN_NOT_OK(WriteBlobFile(env_, JoinPath(dir, kManifestTmpName),
                                     kManifestMagic, EncodeManifest(m)));
  HERMES_RETURN_NOT_OK(env_->RenameFile(JoinPath(dir, kManifestTmpName),
                                        JoinPath(dir, kManifestName)));
  checkpoint_id_ = m.checkpoint_id;
  wal_start_segment_ = fresh_segment;
  checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);

  // Best-effort cleanup of what the new manifest no longer references:
  // covered WAL segments and store files of older checkpoints. Failures
  // here only leak disk space; the next checkpoint retries.
  auto segments = wal::ListSegments(env_, dir);
  if (segments.ok()) {
    for (uint64_t seg : segments.value()) {
      if (seg < fresh_segment) {
        (void)env_->DeleteFile(JoinPath(dir, wal::SegmentFileName(seg)));
      }
    }
  }
  auto names = env_->ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      uint64_t ckpt_id = 0;
      if (ParseCkptFileName(name, &ckpt_id) &&
          ckpt_id != m.checkpoint_id) {
        (void)env_->DeleteFile(JoinPath(dir, name));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Status Server::ReplayRecord(const wal::Record& rec) {
  Decoder dec(rec.payload);
  HERMES_ASSIGN_OR_RETURN(std::string key, DecodeModName(&dec));
  switch (rec.type) {
    case wal::RecordType::kCreateMod: {
      common::MutexLock lock(&catalog_mu_);
      if (mods_.count(key) > 0) return Status::OK();
      mods_.emplace(key, NewMod(key, traj::TrajectoryStore()));
      return Status::OK();
    }
    case wal::RecordType::kDropMod: {
      common::MutexLock lock(&catalog_mu_);
      mods_.erase(key);
      return Status::OK();
    }
    case wal::RecordType::kInsertBatch: {
      HERMES_ASSIGN_OR_RETURN(std::vector<traj::Trajectory> batch,
                              traj::DecodeTrajectories(&dec));
      auto mod = FindMod(key);
      if (mod == nullptr) {
        // The MOD was dropped by a later record in the log's own
        // past... which cannot precede this record; treat as the live
        // path treats a vanished MOD: an ingest error, not corruption.
        ingest_errors_.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      }
      common::WriterMutexLock wlock(&mod->mu);
      for (traj::Trajectory& t : batch) {
        auto r = mod->store.Add(std::move(t));
        if (!r.ok()) {
          // Mirror the live apply loop: first failure ends the batch
          // (already-added trajectories stay), so replay reproduces the
          // partially-applied state bit for bit.
          ingest_errors_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      return Status::OK();
    }
    case wal::RecordType::kSwapStore: {
      HERMES_ASSIGN_OR_RETURN(traj::TrajectoryStore store,
                              traj::DecodeStore(&dec));
      auto mod = NewMod(key, std::move(store));
      common::MutexLock lock(&catalog_mu_);
      mods_[key] = std::move(mod);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown WAL record type " +
                            std::to_string(static_cast<int>(rec.type)));
}

Status Server::RecoverOrInit() {
  const std::string& dir = options_.wal_dir;
  HERMES_RETURN_NOT_OK(env_->CreateDirs(dir));
  common::MutexLock wal_lock(&wal_mu_);

  uint64_t start_segment = 1;
  uint64_t next_lsn = 1;
  if (env_->FileExists(JoinPath(dir, kManifestName))) {
    HERMES_ASSIGN_OR_RETURN(
        std::string payload,
        ReadBlobFile(env_, JoinPath(dir, kManifestName), kManifestMagic));
    HERMES_ASSIGN_OR_RETURN(Manifest m, DecodeManifest(payload));
    checkpoint_id_ = m.checkpoint_id;
    start_segment = m.wal_start_segment;
    next_lsn = m.next_lsn;
    // Set before any MOD is created: it names their tree directories.
    gen_ = m.gen + 1;
    for (const ModMeta& meta : m.mods) {
      HERMES_ASSIGN_OR_RETURN(
          std::string blob,
          ReadBlobFile(env_, JoinPath(dir, meta.store_file), kStoreMagic));
      Decoder dec(blob);
      HERMES_ASSIGN_OR_RETURN(traj::TrajectoryStore store,
                              traj::DecodeStore(&dec));
      // Trees are caches, never saved: the first QUT rebuilds one from
      // the store.
      auto mod = NewMod(meta.name, std::move(store));
      common::MutexLock lock(&catalog_mu_);
      mods_[meta.name] = std::move(mod);
    }
  }

  // Replay the WAL tail in segment (and hence LSN) order. Only the LAST
  // segment can end torn — writers never append to a segment once a
  // later one exists — but a scan stops at the first bad record either
  // way, so replaying each segment's valid prefix is exactly replaying
  // the durable prefix.
  HERMES_ASSIGN_OR_RETURN(std::vector<uint64_t> segments,
                          wal::ListSegments(env_, dir));
  for (uint64_t seg : segments) {
    if (seg < start_segment) continue;  // Covered; deletion raced a crash.
    HERMES_ASSIGN_OR_RETURN(wal::SegmentScan scan,
                            wal::ReadSegment(env_, dir, seg));
    wal_torn_bytes_dropped_.fetch_add(scan.tail_bytes_dropped,
                                      std::memory_order_relaxed);
    for (const wal::Record& rec : scan.records) {
      if (rec.lsn < next_lsn) continue;  // Below the checkpoint's floor.
      HERMES_RETURN_NOT_OK(ReplayRecord(rec));
      next_lsn = rec.lsn + 1;
      wal_records_replayed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Republish every MOD once after the full tail is applied (per-record
  // republishing would be wasted work with no reader yet alive).
  {
    common::MutexLock lock(&catalog_mu_);
    for (const auto& [key, mod] : mods_) {
      common::WriterMutexLock wlock(&mod->mu);
      Republish(mod.get());
    }
  }

  // Always rotate to a never-before-used segment id: recovery must not
  // append after a possibly-torn tail, and replay relies on "a segment
  // is never written again once a later one exists".
  const uint64_t fresh_segment = std::max(
      start_segment, segments.empty() ? start_segment : segments.back() + 1);
  HERMES_ASSIGN_OR_RETURN(
      wal_, wal::Writer::Open(env_, dir, fresh_segment, next_lsn));
  wal_start_segment_ = start_segment;
  return Status::OK();
}

}  // namespace hermes::service
