#include "server/master_service.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "server/backup_service.hpp"
#include "server/recovery_task.hpp"

namespace rc::server {

MasterService::MasterService(
    node::Node& node, Dispatch& dispatch, net::RpcSystem& rpc,
    const ServiceDirectory& directory, MasterParams params,
    std::function<RecoveryPlanPtr(std::uint64_t)> planLookup,
    node::NodeId coordinatorNode, sim::Rng rng)
    : node_(node),
      dispatch_(dispatch),
      rpc_(rpc),
      directory_(directory),
      params_(params),
      planLookup_(std::move(planLookup)),
      coordinator_(coordinatorNode),
      rng_(rng),
      log_(params_.log),
      cleaner_(
          log_,
          [this](const log::LogEntry& e, log::LogRef newRef) {
            if (e.type == log::EntryType::kCompletion) {
              // The backing record moved; keep the suppression table's ref
              // fresh so GC marks the relocated copy dead, not the old slot.
              unacked_.updateRecordRef(e.clientId, e.rpcSeq, newRef);
              return;
            }
            if (e.type == log::EntryType::kTxPrepare) {
              // Both the suppression table and the lock table may point at
              // a prepare record; refresh whichever still references it.
              if (e.clientId != 0) {
                unacked_.updateRecordRef(e.clientId, e.rpcSeq, newRef);
              }
              txLocks_.updatePrepareRef(e.txId, e.tableId, e.keyId, newRef);
              return;
            }
            if (e.type == log::EntryType::kTxDecision) {
              if (e.clientId != 0) {
                unacked_.updateRecordRef(e.clientId, e.rpcSeq, newRef);
              }
              txLocks_.updateDecisionRef(e.txId, e.tableId, e.keyId, newRef);
              return;
            }
            if (e.type != log::EntryType::kObject) return;
            const hash::Key k{e.tableId, e.keyId};
            if (auto* loc = map_.getMutable(k);
                loc != nullptr && loc->version == e.version) {
              loc->ref = newRef;
            }
          },
          params.cleanerPolicy),
      replicaMgr_(
          node.sim(), rpc, node.id(), params_.replication,
          [this] { return backupCandidates(); },
          [this](log::SegmentId id) -> const log::Segment* {
            auto s = findSegment(id);
            return s.get();
          },
          rng_.fork(0xbac)) {
  replicaMgr_.stillAlive = [this] { return node_.cpu().poweredOn(); };
  replicaMgr_.underPressure = [this] { return dispatch_.underPressure(); };
  log_.onSegmentOpened = [this](log::Segment& seg) {
    replicaMgr_.onSegmentOpened(seg);
  };
  log_.onSegmentSealed = [this](log::Segment& seg) {
    if (!bulkMode_) replicaMgr_.sealSegment(seg);
  };
}

MasterService::~MasterService() = default;

std::vector<node::NodeId> MasterService::backupCandidates() const {
  std::vector<node::NodeId> out;
  if (directory_.liveBackups) {
    out = directory_.liveBackups();
    std::erase(out, node_.id());
  }
  return out;
}

int MasterService::concurrentStreams() const {
  const sim::SimTime cutoff = node_.sim().now() - params_.concurrencyWindow;
  int n = 0;
  for (auto it = recentStreams_.begin(); it != recentStreams_.end();) {
    if (it->second < cutoff) {
      it = recentStreams_.erase(it);
    } else {
      ++n;
      ++it;
    }
  }
  return n;
}

void MasterService::noteStream(node::NodeId from) {
  recentStreams_[from] = node_.sim().now();
}

void MasterService::handleRpc(const net::RpcRequest& req, node::NodeId from,
                              Responder respond) {
  if (req.op == net::Opcode::kRead || req.op == net::Opcode::kWrite ||
      req.op == net::Opcode::kRemove || req.op == net::Opcode::kTxPrepare ||
      req.op == net::Opcode::kTxDecision) {
    noteStream(from);
    // Span opened at client issue time: the elapsed stage is the
    // client->server network + transport leg.
    stampTrace(req.traceSpan, obs::TimeTrace::Stage::kNetworkRequest);
  }
  // Admission control: shed data-plane work before it costs a worker.
  // Exempt: pings and control plane (cheap / load-shedding them hides
  // failures), replication+recovery (rf safety), and kTxDecision — shedding
  // a lock release would wedge the lock table (docs/OVERLOAD.md).
  switch (req.op) {
    case net::Opcode::kRead:
    case net::Opcode::kWrite:
    case net::Opcode::kRemove:
    case net::Opcode::kTxPrepare:
    case net::Opcode::kScan:
    case net::Opcode::kMultiRead:
    case net::Opcode::kMultiWrite: {
      const bool isWrite = req.op != net::Opcode::kRead &&
                           req.op != net::Opcode::kScan &&
                           req.op != net::Opcode::kMultiRead;
      const Dispatch::AdmitResult ar =
          dispatch_.admit(isWrite, static_cast<int>(req.tenant));
      if (!ar.admitted) {
        ++stats_.shedRequests;
        // One dispatch poll to emit the rejection: cheap, but not free.
        dispatch_.enqueue([respond = std::move(respond),
                           retryAfter = ar.retryAfter]() mutable {
          net::RpcResponse r;
          r.status = net::Status::kOverloaded;
          r.a = static_cast<std::uint64_t>(retryAfter);
          respond(std::move(r));
        });
        return;
      }
      break;
    }
    default:
      break;
  }
  switch (req.op) {
    case net::Opcode::kPing: {
      // Pings are answered by the dispatch thread itself.
      dispatch_.enqueue([respond = std::move(respond)]() mutable {
        respond(net::RpcResponse{});
      });
      break;
    }
    case net::Opcode::kRead:
      onRead(req, std::move(respond));
      break;
    case net::Opcode::kWrite:
      mutate(req, std::move(respond), kWriteOp);
      break;
    case net::Opcode::kTxPrepare:
      mutate(req, std::move(respond), kTxPrepareOp);
      break;
    case net::Opcode::kTxDecision:
      mutate(req, std::move(respond), kTxDecisionOp);
      break;
    case net::Opcode::kTxVote:
      onTxVote(req, std::move(respond));
      break;
    case net::Opcode::kRemove:
      mutate(req, std::move(respond), kRemoveOp);
      break;
    case net::Opcode::kScan:
      onScan(req, std::move(respond));
      break;
    case net::Opcode::kMultiRead:
    case net::Opcode::kMultiWrite:
      onMultiOp(req, std::move(respond));
      break;
    case net::Opcode::kStartRecovery:
      onStartRecovery(req, std::move(respond));
      break;
    case net::Opcode::kServerListUpdate:
      onServerListUpdate(req, std::move(respond));
      break;
    case net::Opcode::kMigrateTablet:
      onMigrateTablet(req, std::move(respond));
      break;
    case net::Opcode::kMigrationData:
      onMigrationData(req, from, std::move(respond));
      break;
    default: {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
    }
  }
}

void MasterService::crash() {
  for (auto& rt : recoveries_) rt->abort();
  recoveries_.clear();
  for (auto& mt : migrations_) mt->abort();
  migrations_.clear();
  logLock_.reset();
  cleanerActive_ = false;
  // DRAM state dies with the node; suppression state is rebuilt from the
  // replicated kCompletion records by whichever master recovers the tablets,
  // and the tx lock table from the replicated kTxPrepare/kTxDecision records.
  unacked_.clear();
  txLocks_.clear();
  crashBeforeReplyHook_ = nullptr;
  leaseReclaim_.reset();
}

void MasterService::addTablet(const Tablet& t) {
  Tablet owned = t;
  owned.owner = node_.id();
  tablets_.push_back(owned);
  // Heat slots exist from the moment a tablet is owned (recovery and
  // migration add tablets mid-run; their probes appear on the next sample).
  TabletHeat& heat = tabletHeat_[{owned.tableId, owned.startHash}];
  if (metricReg_ != nullptr && !heat.registered) {
    registerTabletHeat(owned.tableId, owned.startHash, heat);
  }
}

net::Status MasterService::admitKey(std::uint64_t tableId, std::uint64_t keyId,
                                    bool bounceMigrating, bool isWrite) {
  const std::uint64_t h = hash::keyHash(hash::Key{tableId, keyId});
  const auto owned =
      std::find_if(tablets_.begin(), tablets_.end(),
                   [&](const Tablet& t) { return t.covers(tableId, h); });
  if (owned == tablets_.end()) {
    ++stats_.unknownTablet;
    return net::Status::kUnknownTablet;
  }
  // The range is being shipped elsewhere; the client backs off and
  // re-routes once the coordinator flips the tablet map.
  if (bounceMigrating && isMigratingRange(tableId, h)) {
    return net::Status::kRecovering;
  }
  TabletHeat& heat = tabletHeat_[{owned->tableId, owned->startHash}];
  ++(isWrite ? heat.writes : heat.reads);
  return net::Status::kOk;
}

void MasterService::registerTabletHeat(std::uint64_t tableId,
                                       std::uint64_t startHash,
                                       TabletHeat& heat) {
  char slot[64];
  std::snprintf(slot, sizeof(slot), ".tablet.heat.t%llu.h%llx",
                static_cast<unsigned long long>(tableId),
                static_cast<unsigned long long>(startHash));
  const std::string base = metricPrefix_ + slot;
  // `heat` lives in the node-keyed std::map: stable address for the probes.
  metricReg_->probeCounter(base + ".reads", "ops", [&heat] {
    return static_cast<double>(heat.reads);
  });
  metricReg_->probeCounter(base + ".writes", "ops", [&heat] {
    return static_cast<double>(heat.writes);
  });
  heat.registered = true;
}

bool MasterService::ownsKey(std::uint64_t tableId, std::uint64_t keyId) const {
  const std::uint64_t h = hash::keyHash(hash::Key{tableId, keyId});
  for (const Tablet& t : tablets_) {
    if (t.covers(tableId, h)) return true;
  }
  return false;
}

MasterService::ApplyResult MasterService::applyObject(std::uint64_t tableId,
                                                      std::uint64_t keyId,
                                                      std::uint32_t sizeBytes,
                                                      log::EntryType type) {
  const hash::Key k{tableId, keyId};
  // The append below neither inserts nor erases index entries, so `old`
  // stays valid across it and the overwrite needs no second probe.
  hash::ObjectLocation* old = map_.getMutable(k);
  const bool tombstone = type == log::EntryType::kTombstone;
  log::LogEntry e;
  e.tableId = tableId;
  e.keyId = keyId;
  e.sizeBytes = sizeBytes;
  e.version = log_.nextVersion();
  e.type = type;
  if (tombstone) e.refSegment = old->ref.segment;
  const log::LogRef ref = log_.append(e, node_.sim().now());
  if (old != nullptr) log_.markDead(old->ref);
  const hash::ObjectLocation loc{ref, e.version, e.sizeBytes};
  if (tombstone) {
    map_.erase(k);
  } else if (old != nullptr) {
    *old = loc;
  } else {
    map_.put(k, loc);
  }
  return ApplyResult{ref, e.version, e.sizeBytes};
}

std::uint64_t MasterService::versionOf(std::uint64_t tableId,
                                       std::uint64_t keyId) const {
  const auto* loc = map_.get(hash::Key{tableId, keyId});
  return loc != nullptr ? loc->version : 0;
}

void MasterService::ensureHeadRoom(std::uint32_t bytes) {
  log::Segment* head = log_.head();
  if (head != nullptr && !head->hasRoom(bytes)) log_.sealHead();
}

void MasterService::releaseCompletionRecords(
    const std::vector<log::LogRef>& freed) {
  for (const log::LogRef& ref : freed) {
    if (!ref.valid() || log_.segment(ref.segment) == nullptr) continue;
    // A freed prepare record may still back a held tx lock (the client acks
    // the prepare seq as soon as the vote reply lands, long before the
    // decision). The lock adopts the record; it is marked dead when the
    // decision releases the lock, keeping it replayable by crash recovery
    // until the transaction is actually resolved.
    if (txLocks_.adoptRecord(ref)) continue;
    log_.markDead(ref);
  }
}

void MasterService::startLeaseReclaim() {
  if (leaseReclaim_ != nullptr || !directory_.leaseValid) return;
  leaseReclaim_ = std::make_unique<sim::PeriodicTask>(
      node_.sim(), params_.leaseReclaimInterval, [this](sim::SimTime) {
        if (!node_.cpu().poweredOn()) return;
        std::vector<log::LogRef> freed;
        unacked_.reclaimExpired(directory_.leaseValid, &freed);
        releaseCompletionRecords(freed);
        sweepOrphanedTx();
        std::vector<log::LogRef> txFreed;
        txLocks_.gcResolved(directory_.leaseValid, node_.sim().now(),
                            2 * params_.leaseReclaimInterval, &txFreed);
        for (const log::LogRef& ref : txFreed) {
          if (ref.valid() && log_.segment(ref.segment) != nullptr) {
            log_.markDead(ref);
          }
        }
      });
}

const hash::ObjectLocation* MasterService::lookup(std::uint64_t tableId,
                                                  std::uint64_t keyId,
                                                  std::uint16_t tenant) {
  const auto* loc = map_.get(hash::Key{tableId, keyId});
  if (loc != nullptr) {
    node_.chargeDram(loc->sizeBytes, {power::OpClass::kRead, tenant});
  } else {
    ++stats_.missingKeys;
  }
  return loc;
}

void MasterService::onRead(const net::RpcRequest& req, Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t keyId = req.b;
  const std::uint64_t span = req.traceSpan;
  const std::uint16_t tenant = req.tenant;
  const sim::SimTime arrival = node_.sim().now();

  dispatch_.enqueue(guard([this, tableId, keyId, span, arrival, tenant,
                           respond = std::move(respond)]() mutable {
    stampTrace(span, obs::TimeTrace::Stage::kDispatchWait);
    if (const net::Status st = admitKey(tableId, keyId,
                                        /*bounceMigrating=*/false,
                                        /*isWrite=*/false);
        st != net::Status::kOk) {
      net::RpcResponse r;
      r.status = st;
      respond(std::move(r));
      return;
    }
    node_.cpu().acquireWorker(guard([this, tableId, keyId, span, arrival,
                                     tenant,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kRead, tenant});
      node_.sim().schedule(
          params_.readServiceTime,
          guard([this, tableId, keyId, span, arrival, tenant, w,
                 respond = std::move(respond)]() mutable {
            node_.cpu().releaseWorker(w);
            net::RpcResponse r;
            if (const auto* loc = lookup(tableId, keyId, tenant)) {
              r.a = 1;
              r.b = loc->version;
              r.payloadBytes = loc->sizeBytes;
            }
            ++stats_.reads;
            stats_.readServiceLatency.add(node_.sim().now() - arrival);
            dispatch_.noteSojourn(node_.sim().now() - arrival);
            stampTrace(span, obs::TimeTrace::Stage::kWorkerService);
            respond(std::move(r));
          }));
    }));
  }));
}

/// What differs between the mutating ops. Everything else — admission,
/// the append order, the record, the sync and the reply — is shared.
struct MasterService::MutationOp {
  sim::Duration MasterParams::*cpu;  ///< worker CPU under logLock_
  bool convoy;  ///< cpu stretched by the thread-handling penalty
  std::uint64_t MasterStats::*counter;  ///< bumped (with the service time)
  bool stub;             ///< pays unreplicatedSyncTime at rf=0
  bool blockedByTxLock;  ///< any held tx version lock refuses the op
  bool trackedOnly;      ///< an untracked request is refused
  bool readOnlyItems;    ///< no value = read-only tx item, validated only
  /// The op's verdict under logLock_: status, version, what to append.
  void (MasterService::*decide)(Mutation&, const TxLockTable::Lock*);
};

/// One mutating RPC. The request half is built from the RpcRequest in
/// mutate(); the verdict half is filled by the op's decide step.
struct MasterService::Mutation {
  const MutationOp* op = nullptr;
  std::uint64_t tableId = 0;
  std::uint64_t keyId = 0;
  std::uint32_t valueBytes = 0;
  /// Write/prepare: expected version (0 = blind). Decision: bit 0 commit,
  /// bit 1 sent by orphan resolution.
  std::uint64_t expected = 0;
  std::uint64_t txId = 0;
  std::uint64_t clientId = 0;  ///< 0 = untracked (no exactly-once)
  std::uint64_t rpcSeq = 0;
  std::uint64_t firstUnacked = 0;
  std::uint64_t span = 0;
  std::uint16_t tenant = 0;
  sim::SimTime arrival = 0;
  log::TxParticipants participants;
  Responder respond;

  net::Status status = net::Status::kOk;
  std::uint64_t version = 0;
  bool found = true;
  bool applied = true;  ///< false: a recorded rejection, nothing changed
  bool crashPoint = false;  ///< crash_before_reply may swallow the reply
  std::uint64_t MasterStats::*counter = nullptr;
  std::uint32_t objectBytes = 0;  ///< object or tombstone to append (0: none)
  log::EntryType objectType = log::EntryType::kObject;
  log::LogEntry record;  ///< the completion, prepare or decision record
  log::LogRef recordRef;
  const char* journalName = nullptr;
  std::uint64_t journalSpan = 0;

  void reject(net::Status s, std::uint64_t v) {
    status = s;
    version = v;
    applied = false;
  }
};

const MasterService::MutationOp MasterService::kWriteOp{
    .cpu = &MasterParams::writeAppendCpu,
    .convoy = true,
    .counter = &MasterStats::writes,
    .stub = true,
    .blockedByTxLock = true,
    .trackedOnly = false,
    .readOnlyItems = false,
    .decide = &MasterService::decideWrite};
const MasterService::MutationOp MasterService::kRemoveOp{
    .cpu = &MasterParams::removeServiceTime,
    .convoy = false,
    .counter = &MasterStats::removes,
    .stub = false,
    .blockedByTxLock = true,
    .trackedOnly = false,
    .readOnlyItems = false,
    .decide = &MasterService::decideRemove};
const MasterService::MutationOp MasterService::kTxPrepareOp{
    .cpu = &MasterParams::writeAppendCpu,
    .convoy = true,
    .counter = &MasterStats::writes,
    .stub = true,
    .blockedByTxLock = false,
    .trackedOnly = true,
    .readOnlyItems = true,
    .decide = &MasterService::decideTxPrepare};
const MasterService::MutationOp MasterService::kTxDecisionOp{
    .cpu = &MasterParams::writeAppendCpu,
    .convoy = false,
    .counter = &MasterStats::writes,
    .stub = true,
    .blockedByTxLock = false,
    .trackedOnly = false,
    .readOnlyItems = false,
    .decide = &MasterService::decideTxDecision};

void MasterService::mutate(const net::RpcRequest& req, Responder respond,
                           const MutationOp& op) {
  auto m = std::make_shared<Mutation>();
  m->op = &op;
  m->tableId = req.a;
  m->keyId = req.b;
  m->valueBytes = static_cast<std::uint32_t>(req.payloadBytes);
  m->expected = req.c;
  m->txId = req.d;
  m->clientId = req.clientId;
  m->rpcSeq = req.rpcSeq;
  m->firstUnacked = req.firstUnacked;
  m->span = req.traceSpan;
  m->tenant = req.tenant;
  m->arrival = node_.sim().now();
  m->respond = std::move(respond);
  m->counter = op.counter;
  m->record.tableId = req.a;
  m->record.keyId = req.b;
  m->record.type = log::EntryType::kCompletion;
  m->record.sizeBytes = params_.completionRecordBytes;
  m->record.clientId = req.clientId;
  m->record.rpcSeq = req.rpcSeq;
  if (req.keys && !req.keys->empty()) {
    // Participant key list packed as alternating (tableId, keyId) pairs.
    auto parts = std::make_shared<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>>();
    parts->reserve(req.keys->size() / 2);
    for (std::size_t i = 0; i + 1 < req.keys->size(); i += 2) {
      parts->emplace_back((*req.keys)[i], (*req.keys)[i + 1]);
    }
    m->participants = std::move(parts);
  }

  dispatch_.enqueue(guard([this, m]() mutable {
    if (!admit(m)) return;
    node_.cpu().acquireWorker(guard([this, m](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kUpdate, m->tenant});
      logLock_.acquire(guard([this, m, w]() mutable {
        sim::Duration cpu = params_.*(m->op->cpu);
        if (m->op->convoy) {
          // Thread-handling cost under concurrency (Finding 2's root
          // cause): the more distinct streams hammer this server, the more
          // futile context switches each synced update eats. sqrt keeps
          // the penalty sublinear, as fitted to Table II.
          const double streams = static_cast<double>(concurrentStreams());
          cpu += sim::usecF(params_.convoyPenaltyUs * std::sqrt(streams));
        }
        node_.sim().schedule(cpu, guard([this, m, w]() mutable {
          applyMutation(m, w);
        }));
      }));
    }));
  }));
}

bool MasterService::admit(const std::shared_ptr<Mutation>& m) {
  // Stamped before any bounce, so a refused request's server time is still
  // charged to dispatch_wait.
  stampTrace(m->span, obs::TimeTrace::Stage::kDispatchWait);
  const bool validateOnly = m->op->readOnlyItems && m->valueBytes == 0;
  net::RpcResponse r;
  r.status = admitKey(m->tableId, m->keyId, /*bounceMigrating=*/true,
                      /*isWrite=*/!validateOnly);
  if (r.status != net::Status::kOk) {
    m->respond(std::move(r));
    return false;
  }
  if (validateOnly) {
    validateTxRead(m);
    return false;
  }
  if (m->clientId == 0) {
    if (!m->op->trackedOnly) return true;
    // A locking prepare must be RIFL-tracked: without a lease there is no
    // owner to reclaim the lock from when the client dies.
    r.status = net::Status::kError;
  } else if (directory_.leaseValid && !directory_.leaseValid(m->clientId)) {
    r.status = net::Status::kExpiredLease;
  } else {
    // RIFL admission: check the suppression table before burning a worker
    // on a duplicate.
    startLeaseReclaim();
    std::vector<log::LogRef> freed;
    const auto adm =
        unacked_.begin(m->clientId, m->rpcSeq, m->firstUnacked, &freed);
    releaseCompletionRecords(freed);
    switch (adm.check) {
      case UnackedRpcResults::Check::kNew:
        return true;
      case UnackedRpcResults::Check::kCompleted:
        // Duplicate of a finished op: replay the recorded outcome, never
        // re-execute (the original may have been a different value).
        r.status = static_cast<net::Status>(adm.result.status);
        r.a = adm.result.found ? 1 : 0;
        r.b = adm.result.version;
        break;
      case UnackedRpcResults::Check::kInProgress:
        // First attempt still replicating; the retry backs off like a
        // recovery wait and re-probes.
        r.status = net::Status::kRecovering;
        break;
      case UnackedRpcResults::Check::kStale:
        r.status = net::Status::kStaleRpc;
        break;
    }
  }
  m->respond(std::move(r));
  return false;
}

void MasterService::validateTxRead(const std::shared_ptr<Mutation>& m) {
  // Read-only transaction item (docs/TRANSACTIONS.md): check the read
  // version is still current and the object unlocked. No lock, no log
  // record — the client decides locally from the votes.
  node_.cpu().acquireWorker(guard([this, m](int w) mutable {
    node_.cpu().tagWorker(w, {power::OpClass::kRead, m->tenant});
    node_.sim().schedule(
        params_.readServiceTime, guard([this, m, w]() mutable {
          node_.cpu().releaseWorker(w);
          const TxLockTable::Lock* lock = txLocks_.get(m->tableId, m->keyId);
          net::RpcResponse r;
          r.b = versionOf(m->tableId, m->keyId);
          if (lock != nullptr && lock->txId != m->txId) {
            r.status = net::Status::kTxConflict;
            txLocks_.countConflict();
          } else if (r.b != m->expected) {
            r.status = net::Status::kVersionMismatch;
          }
          stampTrace(m->span, obs::TimeTrace::Stage::kWorkerService);
          m->respond(std::move(r));
        }));
  }));
}

void MasterService::decideWrite(Mutation& m, const TxLockTable::Lock*) {
  if (m.expected != 0) {
    // Conditional check under the append lock: an interleaved writer cannot
    // slip between check and apply. The rejection is recorded too, so a
    // duplicate retry replays kVersionMismatch instead of re-running the
    // check against whatever version exists by then.
    const std::uint64_t cur = versionOf(m.tableId, m.keyId);
    if (cur != m.expected) {
      m.reject(net::Status::kVersionMismatch, cur);
      return;
    }
  }
  m.objectBytes = m.valueBytes + params_.objectOverheadBytes;
  m.crashPoint = true;
}

void MasterService::decideRemove(Mutation& m, const TxLockTable::Lock*) {
  // A not-found remove is recorded too: the retry must see the original
  // answer, not whatever a later write put there.
  m.found = map_.get(hash::Key{m.tableId, m.keyId}) != nullptr;
  if (m.found) {
    m.objectBytes = params_.tombstoneBytes;
    m.objectType = log::EntryType::kTombstone;
  } else {
    ++stats_.missingKeys;
  }
  m.crashPoint = true;
}

void MasterService::decideTxPrepare(Mutation& m,
                                    const TxLockTable::Lock* held) {
  // Vote checks under the append lock: fence, lock, version. A vote-no is
  // an outcome: recorded so a duplicate prepare retry replays the same no
  // (a vote must never flip once given). Recorded votes count no write.
  const std::uint64_t cur = versionOf(m.tableId, m.keyId);
  auto vote = [&m](net::Status s, std::uint64_t v) {
    m.reject(s, v);
    m.counter = nullptr;
  };
  if (txLocks_.isFencedAborted(m.txId)) {
    vote(net::Status::kTxConflict, 0);
  } else if (txLocks_.voteStatus(m.txId) == 2) {
    // The tx already committed here (orphan resolution beat a stale prepare
    // retry). Answer yes durably, without a lock: a version-mismatch reject
    // would make the client report abort for data that committed.
    vote(net::Status::kOk, cur);
  } else if (held != nullptr && held->txId != m.txId) {
    txLocks_.countConflict();
    vote(net::Status::kTxConflict, held->expectedVersion);
  } else if (held == nullptr && m.expected != 0 && cur != m.expected) {
    // expected == 0 means blind write (same convention as decideWrite).
    vote(net::Status::kVersionMismatch, cur);
  } else {
    // Vote yes: a durable prepare record; finish() takes the lock.
    m.version = cur;
    m.record.type = log::EntryType::kTxPrepare;
    m.record.sizeBytes = params_.txPrepareRecordBytes;
    m.record.txId = m.txId;
    m.record.txPendingBytes = m.valueBytes;
    m.record.txExpectedVersion = m.expected;
    m.record.txParticipants = m.participants;
    m.journalName = "tx_prepare";
  }
}

void MasterService::decideTxDecision(Mutation& m,
                                     const TxLockTable::Lock* lock) {
  if (lock == nullptr || lock->txId != m.txId) {
    // No lock for this tx here (already resolved, or never prepared): the
    // answer must still be durable so a retry replays it instead of racing
    // whatever happens later.
    m.found = false;
    m.version = versionOf(m.tableId, m.keyId);
    return;
  }
  // Apply: object write (commit only) + decision record land in one
  // segment so they recover atomically; finish() releases the lock.
  const bool commit = (m.expected & 1) != 0;
  if (commit) {
    m.objectBytes = lock->pendingValueBytes + params_.objectOverheadBytes;
  }
  m.record.type = log::EntryType::kTxDecision;
  m.record.txId = m.txId;
  m.record.txCommit = commit;
  if (m.clientId == 0) m.record.clientId = lock->clientId;
  m.journalName = commit ? "tx_commit" : "tx_abort";
  // Fault point "crash a participant mid-commit".
  m.crashPoint = true;
}

void MasterService::applyMutation(const std::shared_ptr<Mutation>& m,
                                  int w) {
  const bool tracked = m->clientId != 0;
  const TxLockTable::Lock* held = txLocks_.get(m->tableId, m->keyId);
  if (held != nullptr && m->op->blockedByTxLock) {
    // A prepared minitransaction holds this object's version lock: a plain
    // write slipping underneath would invalidate the vote that participant
    // already cast. Reject; the writer retries after the decision releases
    // the lock. Nothing mutated, so the RIFL entry rolls back (a retry
    // re-runs the check) instead of recording a durable verdict.
    txLocks_.countConflict();
    if (tracked) unacked_.abortInProgress(m->clientId, m->rpcSeq);
    net::RpcResponse r;
    r.status = net::Status::kTxConflict;
    r.b = held->expectedVersion;
    stampTrace(m->span, obs::TimeTrace::Stage::kWorkerService);
    logLock_.release();
    m->respond(std::move(r));
    node_.cpu().releaseWorker(w);
    return;
  }
  (this->*m->op->decide)(*m, held);
  // A completion record backs a tracked RPC only; prepare and decision
  // records are always written.
  const bool recorded =
      tracked || m->record.type != log::EntryType::kCompletion;
  // The object and its record must recover atomically, so they may not
  // straddle segments.
  ensureHeadRoom(m->objectBytes + (recorded ? m->record.sizeBytes : 0));
  std::uint32_t bytes = 0;
  log::LogRef last;
  if (m->objectBytes != 0) {
    const ApplyResult res =
        applyObject(m->tableId, m->keyId, m->objectBytes, m->objectType);
    m->version = res.version;
    last = res.ref;
    bytes += res.entryBytes;
  }
  if (recorded) {
    m->record.version = m->version;
    m->record.opStatus = static_cast<std::uint8_t>(m->status);
    m->record.found = m->found;
    m->recordRef = last = log_.append(m->record, node_.sim().now());
    bytes += m->record.sizeBytes;
  }
  node_.chargeDram(bytes, {power::OpClass::kUpdate, m->tenant});
  // Hash/log work done; what follows is the log-sync / replication fan-out
  // the paper's Finding 3 is about.
  if (m->applied) stampTrace(m->span, obs::TimeTrace::Stage::kWorkerService);
  if (journal_ != nullptr && m->journalName != nullptr) {
    m->journalSpan = journal_->beginSpan(
        m->journalName, static_cast<int>(node_.id()), 0, m->txId);
  }
  auto done = guard([this, m, w](bool ok) { finish(*m, w, ok); });
  if (params_.replication.factor > 0 && bytes != 0) {
    // Object + record sync as one append (one segment, see above).
    replicaMgr_.replicateAppend(last.segment, bytes, std::move(done));
  } else if (bytes != 0 && m->applied && m->op->stub) {
    // Log sync without backups still pays RAMCloud's thread-handling
    // overhead (see MasterParams).
    node_.sim().schedule(params_.unreplicatedSyncTime,
                         guard([done = std::move(done)]() mutable {
                           done(true);
                         }));
  } else {
    done(true);
  }
}

void MasterService::finish(Mutation& m, int w, bool ok) {
  logLock_.release();
  const bool tracked = m.clientId != 0;
  net::RpcResponse r;
  if (!ok) {
    // Nothing durably recorded: the retry re-executes. A tx lock stays
    // held; the retry (or the resolution sweep) re-applies the decision.
    r.status = net::Status::kError;
    ++stats_.replicationFailures;
    if (tracked) unacked_.abortInProgress(m.clientId, m.rpcSeq);
    if (m.recordRef.valid()) log_.markDead(m.recordRef);
  } else {
    if (m.record.type == log::EntryType::kTxPrepare) {
      // Re-prepare by the same tx (lease-expiry retry under a new
      // clientId): drop the superseded record so it does not pin live
      // bytes forever.
      const TxLockTable::Lock* prev = txLocks_.get(m.tableId, m.keyId);
      if (prev != nullptr && prev->prepareRecord.valid() &&
          !(prev->prepareRecord == m.recordRef) &&
          log_.segment(prev->prepareRecord.segment) != nullptr) {
        log_.markDead(prev->prepareRecord);
      }
      installTxLock(m.record, m.recordRef, /*ownedByUnacked=*/true);
      txLocks_.countPrepare();
    } else if (TxLockTable::Lock released;
               m.record.type == log::EntryType::kTxDecision &&
               txLocks_.release(m.tableId, m.keyId, m.txId, &released)) {
      // The prepare record has served its purpose: without it, crash
      // replay cannot resurrect the lock (the decision record fences
      // retries). markDead is idempotent wrt the suppression table's GC.
      if (released.prepareRecord.valid() &&
          log_.segment(released.prepareRecord.segment) != nullptr) {
        log_.markDead(released.prepareRecord);
      }
      txLocks_.countDecision(m.record.txCommit, (m.expected & 2) != 0);
      txLocks_.noteResolved(m.txId, m.record.txCommit, released.clientId,
                            m.tableId, m.keyId, m.recordRef, tracked,
                            node_.sim().now());
    }
    if (tracked) {
      unacked_.recordCompletion(
          m.clientId, m.rpcSeq,
          UnackedRpcResults::resultOf(m.record, m.recordRef));
    }
    r.status = m.status;
    r.a = m.found ? 1 : 0;
    r.b = m.version;
  }
  if (m.counter != nullptr) {
    ++(stats_.*m.counter);
    stats_.writeServiceLatency.add(node_.sim().now() - m.arrival);
    dispatch_.noteSojourn(node_.sim().now() - m.arrival);
  }
  stampTrace(m.span, obs::TimeTrace::Stage::kReplicationWait);
  if (journal_ != nullptr && m.journalSpan != 0) {
    journal_->endSpan(m.journalSpan);
  }
  if (ok && m.crashPoint && crashBeforeReplyHook_) {
    // Fault point: the op is durable (and recorded) but the reply never
    // leaves — the injector crashes us from the hook and the client's
    // retry lands on the new owner.
    auto hook = std::move(crashBeforeReplyHook_);
    crashBeforeReplyHook_ = nullptr;
    node_.cpu().releaseWorker(w);
    hook();
    return;
  }
  m.respond(std::move(r));
  node_.cpu().releaseWorker(w);
  maybeStartCleaner();
}

void MasterService::onTxVote(const net::RpcRequest& req, Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t keyId = req.b;
  const std::uint64_t txId = req.d;
  dispatch_.enqueue(guard([this, tableId, keyId, txId,
                           respond = std::move(respond)]() mutable {
    net::RpcResponse r;
    if (!ownsKey(tableId, keyId)) {
      r.status = net::Status::kUnknownTablet;
      respond(std::move(r));
      return;
    }
    const TxLockTable::Lock* lock = txLocks_.get(tableId, keyId);
    if (lock != nullptr && lock->txId == txId) {
      r.a = 1;  // prepared here: vote yes
    } else {
      const int st = txLocks_.voteStatus(txId);
      if (st == 2) {
        r.a = 2;  // decision commit already applied
      } else {
        // No vote (or already aborted). Fence the tx so a late prepare
        // cannot acquire the lock after we told the coordinator "no".
        r.a = 3;
        txLocks_.fenceAbort(txId, node_.sim().now());
      }
    }
    respond(std::move(r));
  }));
}

void MasterService::sweepOrphanedTx() {
  if (!directory_.leaseValid) return;
  const auto orphans = txLocks_.orphanedLocks(directory_.leaseValid);
  for (const TxLockTable::Lock& lock : orphans) {
    // Cooperative termination (docs/TRANSACTIONS.md): ship the tx's full
    // participant list to the coordinator, which collects votes from the
    // current owners and fans out the decision. Fire-and-forget: the sweep
    // re-requests on the next tick while the lock survives.
    net::RpcRequest req;
    req.op = net::Opcode::kTxResolve;
    req.a = lock.txId;
    req.b = lock.clientId;
    if (lock.participants && !lock.participants->empty()) {
      auto keys = std::make_shared<std::vector<std::uint64_t>>();
      keys->reserve(lock.participants->size() * 2);
      for (const auto& [t, k] : *lock.participants) {
        keys->push_back(t);
        keys->push_back(k);
      }
      req.keys = std::move(keys);
    } else {
      // Degenerate single-object tx: the lock itself is the only vote.
      auto keys = std::make_shared<std::vector<std::uint64_t>>();
      keys->push_back(lock.tableId);
      keys->push_back(lock.keyId);
      req.keys = std::move(keys);
    }
    ++txResolveRequests_;
    rpc_.call(node_.id(), coordinator_, net::kCoordinatorPort, std::move(req),
              timeouts::kControl, [](const net::RpcResponse&) {});
  }
}

bool MasterService::installTxLock(const log::LogEntry& prepare,
                                  const log::LogRef& ref,
                                  bool ownedByUnacked) {
  TxLockTable::Lock lock;
  lock.txId = prepare.txId;
  lock.clientId = prepare.clientId;
  lock.rpcSeq = prepare.rpcSeq;
  lock.tableId = prepare.tableId;
  lock.keyId = prepare.keyId;
  lock.pendingValueBytes = prepare.txPendingBytes;
  lock.expectedVersion = prepare.txExpectedVersion;
  lock.prepareRecord = ref;
  lock.participants = prepare.txParticipants;
  lock.preparedAt = node_.sim().now();
  lock.recordOwnedByUnacked = ownedByUnacked;
  if (!txLocks_.acquire(std::move(lock))) return false;
  startLeaseReclaim();  // the sweep is what resolves orphans
  return true;
}

void MasterService::onScan(const net::RpcRequest& req, Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t startHash = req.b;
  const std::uint64_t endHash = req.c;
  const std::uint16_t tenant = req.tenant;

  dispatch_.enqueue(guard([this, tableId, startHash, endHash, tenant,
                           respond = std::move(respond)]() mutable {
    node_.cpu().acquireWorker(guard([this, tableId, startHash, endHash,
                                     tenant,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kRead, tenant});
      // Walk the index; objects outside [startHash, endHash] or the table
      // are skipped (they still cost a probe, folded into perEntry).
      std::uint64_t count = 0;
      std::uint64_t bytes = 0;
      map_.forEach([&](const hash::Key& k, const hash::ObjectLocation& loc) {
        if (k.tableId != tableId) return;
        const std::uint64_t h = hash::keyHash(k);
        if (h < startHash || h > endHash) return;
        ++count;
        bytes += loc.sizeBytes;
      });
      const sim::Duration cpu =
          params_.scanSetupCpu +
          params_.scanPerEntryCpu *
              static_cast<sim::Duration>(map_.size());
      node_.sim().schedule(cpu, guard([this, w, count, bytes, tenant,
                                       respond =
                                           std::move(respond)]() mutable {
        node_.chargeDram(bytes, {power::OpClass::kRead, tenant});
        node_.cpu().releaseWorker(w);
        net::RpcResponse r;
        r.a = count;
        r.payloadBytes = bytes;
        respond(std::move(r));
      }));
    }));
  }));
}

bool MasterService::isMigratingRange(std::uint64_t tableId,
                                     std::uint64_t hash) const {
  for (const auto& m : migrations_) {
    if (m->tablet().covers(tableId, hash)) return true;
  }
  return false;
}

void MasterService::startMigration(const Tablet& tablet,
                                   node::NodeId destination) {
  auto task = std::make_unique<MigrationTask>(*this, tablet, destination);
  MigrationTask* raw = task.get();
  migrations_.push_back(std::move(task));
  raw->start();
}

std::vector<log::LogEntry> MasterService::takeMigrationBatch(
    std::uint64_t batchId) {
  for (auto& m : migrations_) {
    auto batch = m->takeBatch(batchId);
    if (!batch.empty()) return batch;
  }
  return {};
}

void MasterService::dropObjectForMigration(const hash::Key& k) {
  if (const auto* loc = map_.get(k)) {
    log_.markDead(loc->ref);
    map_.erase(k);
  }
}

void MasterService::removeTablet(const Tablet& t) {
  std::erase_if(tablets_, [&t](const Tablet& mine) {
    return mine.tableId == t.tableId && mine.startHash == t.startHash &&
           mine.endHash == t.endHash;
  });
}

void MasterService::onMigrationTaskFinished(MigrationTask* task) {
  node_.sim().schedule(0, guard([this, task] {
    std::erase_if(migrations_, [task](const std::unique_ptr<MigrationTask>& p) {
      return p.get() == task;
    });
  }));
}

void MasterService::onMultiOp(const net::RpcRequest& req,
                              Responder respond) {
  const std::uint64_t tableId = req.a;
  const auto valueBytes = static_cast<std::uint32_t>(req.b);
  const bool isWrite = req.op == net::Opcode::kMultiWrite;
  const std::uint16_t tenant = req.tenant;
  auto keys = req.keys;

  dispatch_.enqueue(guard([this, tableId, valueBytes, isWrite, keys, tenant,
                           respond = std::move(respond)]() mutable {
    if (!keys || keys->empty()) {
      net::RpcResponse r;
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    node_.cpu().acquireWorker(guard([this, tableId, valueBytes, isWrite,
                                     keys, tenant,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(
          w, {isWrite ? power::OpClass::kUpdate : power::OpClass::kRead,
              tenant});
      const auto n = static_cast<sim::Duration>(keys->size());
      const sim::Duration cpu =
          params_.multiOpBaseCpu +
          (isWrite ? params_.multiWritePerKeyCpu
                   : params_.multiReadPerKeyCpu) *
              n;
      // Batched writes still serialise on the log head; model the batch
      // as one lock acquisition.
      auto work = guard([this, tableId, valueBytes, isWrite, keys, w, tenant,
                         respond = std::move(respond)]() mutable {
        // Every key passes the single-key admission and, for writes, the
        // tx-lock check; a refused key is not applied and not served.
        std::uint64_t served = 0;
        std::uint64_t bytes = 0;
        for (const std::uint64_t key : *keys) {
          if (admitKey(tableId, key, /*bounceMigrating=*/isWrite, isWrite) !=
              net::Status::kOk) {
            continue;
          }
          if (!isWrite) {
            ++stats_.reads;
            if (const auto* loc = lookup(tableId, key, tenant)) {
              ++served;
              bytes += loc->sizeBytes;
            }
          } else if (txLocks_.get(tableId, key) != nullptr) {
            txLocks_.countConflict();
          } else {
            bytes += applyObject(tableId, key,
                                 valueBytes + params_.objectOverheadBytes,
                                 log::EntryType::kObject)
                         .entryBytes;
            ++served;
            ++stats_.writes;
          }
        }
        if (isWrite) node_.chargeDram(bytes, {power::OpClass::kUpdate, tenant});
        net::RpcResponse r;
        r.a = served;
        r.b = static_cast<std::uint64_t>(keys->size()) - served;
        r.payloadBytes = isWrite ? 0 : bytes;
        auto finish = guard([this, w, isWrite, r,
                             respond = std::move(respond)](bool ok) mutable {
          if (isWrite) logLock_.release();
          if (!ok) r.status = net::Status::kError;
          respond(std::move(r));
          node_.cpu().releaseWorker(w);
          maybeStartCleaner();
        });
        if (!isWrite || params_.replication.factor <= 0 ||
            log_.head() == nullptr) {
          finish(true);
        } else {
          // One batched sync for the whole append run.
          replicaMgr_.replicateAppend(log_.head()->id(), bytes,
                                      std::move(finish));
        }
      });
      if (isWrite) {
        logLock_.acquire(guard([this, cpu, work = std::move(work)]() mutable {
          node_.sim().schedule(cpu, std::move(work));
        }));
      } else {
        node_.sim().schedule(cpu, std::move(work));
      }
    }));
  }));
}

void MasterService::onMigrateTablet(const net::RpcRequest& req,
                                    Responder respond) {
  const std::uint64_t tableId = req.a;
  const std::uint64_t start = req.b;
  const std::uint64_t end = req.c;
  const auto dest = static_cast<node::NodeId>(req.d);
  dispatch_.enqueue(guard([this, tableId, start, end, dest,
                           respond = std::move(respond)]() mutable {
    // Must own exactly this tablet.
    const Tablet* mine = nullptr;
    for (const Tablet& t : tablets_) {
      if (t.tableId == tableId && t.startHash == start && t.endHash == end) {
        mine = &t;
        break;
      }
    }
    net::RpcResponse r;
    if (mine == nullptr || directory_.masterOn(dest) == nullptr) {
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    respond(std::move(r));  // ack; completion via kMigrationDone
    startMigration(*mine, dest);
  }));
}

void MasterService::onMigrationData(const net::RpcRequest& req,
                                    node::NodeId from, Responder respond) {
  const auto source = static_cast<node::NodeId>(req.a);
  const std::uint64_t batchId = req.b;
  const std::uint64_t count = req.c;
  (void)from;

  dispatch_.enqueue(guard([this, source, batchId, count,
                           respond = std::move(respond)]() mutable {
    node_.cpu().acquireWorker(guard([this, source, batchId, count,
                                     respond =
                                         std::move(respond)](int w) mutable {
      node_.cpu().tagWorker(w, {power::OpClass::kMigration, 0});
      const sim::Duration cpu =
          params_.migration.destPerObjectCpu *
          static_cast<sim::Duration>(count);
      node_.sim().schedule(cpu, guard([this, source, batchId, w,
                                       respond =
                                           std::move(respond)]() mutable {
        MasterService* src = directory_.masterOn(source);
        std::vector<log::LogEntry> batch =
            src != nullptr ? src->takeMigrationBatch(batchId)
                           : std::vector<log::LogEntry>{};
        net::RpcResponse r;
        if (src == nullptr) {
          r.status = net::Status::kError;
          respond(std::move(r));
          node_.cpu().releaseWorker(w);
          return;
        }
        map_.reserve(map_.size() +
                     static_cast<std::size_t>(std::count_if(
                         batch.begin(), batch.end(), [](const auto& e) {
                           return e.type == log::EntryType::kObject;
                         })));
        std::uint64_t bytes = 0;
        log::SegmentId lastSeg = log::kInvalidSegment;
        for (const log::LogEntry& e : batch) {
          log::LogEntry copy = e;
          copy.live = true;
          const log::LogRef ref = log_.append(copy, node_.sim().now());
          bytes += e.sizeBytes;
          lastSeg = ref.segment;
          if (e.type == log::EntryType::kCompletion) {
            // Migrated suppression state: install, never index.
            if (!unacked_.recover(e.clientId, e.rpcSeq,
                                  UnackedRpcResults::resultOf(e, ref))) {
              log_.markDead(ref);
            }
            continue;
          }
          if (e.type == log::EntryType::kTxPrepare) {
            // A version lock moves with its tablet: re-install it and its
            // suppression entry so the new owner votes consistently and the
            // orphan sweep here can finish the tx (docs/TRANSACTIONS.md).
            const bool owned =
                e.clientId != 0 &&
                unacked_.recover(e.clientId, e.rpcSeq,
                                 UnackedRpcResults::resultOf(e, ref));
            if (installTxLock(e, ref, owned)) {
              txLocks_.countMigrated();
            } else if (!owned) {
              log_.markDead(ref);
            }
            continue;
          }
          map_.put(hash::Key{e.tableId, e.keyId},
                   hash::ObjectLocation{ref, e.version, e.sizeBytes});
        }
        node_.chargeDram(bytes, {power::OpClass::kMigration, 0});
        r.a = batch.size();
        auto finish = guard([this, w, r,
                             respond = std::move(respond)](bool ok) mutable {
          if (!ok) r.status = net::Status::kError;
          respond(std::move(r));
          node_.cpu().releaseWorker(w);
          maybeStartCleaner();
        });
        if (params_.replication.factor <= 0 ||
            lastSeg == log::kInvalidSegment) {
          finish(true);
        } else {
          // Durability before ack: the batch is synced like a write (seal
          // hooks true up any bytes that landed in earlier segments).
          replicaMgr_.replicateAppend(lastSeg, bytes, std::move(finish));
        }
      }));
    }));
  }));
}

void MasterService::onStartRecovery(const net::RpcRequest& req,
                                    Responder respond) {
  const std::uint64_t planId = req.a;
  const int partition = static_cast<int>(req.b);
  dispatch_.enqueue(guard([this, planId, partition,
                           respond = std::move(respond)]() mutable {
    RecoveryPlanPtr plan = planLookup_ ? planLookup_(planId) : nullptr;
    net::RpcResponse r;
    if (!plan || partition < 0 ||
        partition >= static_cast<int>(plan->partitions.size())) {
      r.status = net::Status::kError;
      respond(std::move(r));
      return;
    }
    respond(std::move(r));  // ack start; completion arrives via
                            // kRecoveryDone
    startRecovery(std::move(plan), partition);
  }));
}

void MasterService::onServerListUpdate(const net::RpcRequest& req,
                                       Responder respond) {
  const auto dead = static_cast<node::NodeId>(req.a);
  dispatch_.enqueue(guard([this, dead,
                           respond = std::move(respond)]() mutable {
    // Invalidate every replica slot pointing at the dead server and kick
    // off background repair; in-flight recoveries fail over their segment
    // fetches immediately instead of waiting out the RPC timeout.
    replicaMgr_.onBackupFailed(dead);
    for (auto& rt : recoveries_) rt->onBackupDown(dead);
    respond(net::RpcResponse{});
  }));
}

void MasterService::startRecovery(RecoveryPlanPtr plan, int partitionIndex) {
  auto task = std::make_unique<RecoveryTask>(*this, std::move(plan),
                                             partitionIndex);
  RecoveryTask* raw = task.get();
  recoveries_.push_back(std::move(task));
  raw->start();
}

void MasterService::onRecoveryTaskFinished(RecoveryTask* task) {
  // Deferred erase: the task may still be on the call stack.
  node_.sim().schedule(0, guard([this, task] {
    std::erase_if(recoveries_, [task](const std::unique_ptr<RecoveryTask>& p) {
      return p.get() == task;
    });
  }));
}

void MasterService::bulkInsert(std::uint64_t tableId, std::uint64_t keyId,
                               std::uint32_t valueBytes, sim::SimTime now) {
  bulkMode_ = true;
  log::LogEntry e;
  e.tableId = tableId;
  e.keyId = keyId;
  e.sizeBytes = valueBytes + params_.objectOverheadBytes;
  e.version = log_.nextVersion();
  const log::LogRef ref = log_.append(e, now);
  hash::ObjectLocation old;
  if (!map_.put(hash::Key{tableId, keyId},
                hash::ObjectLocation{ref, e.version, e.sizeBytes}, &old)) {
    log_.markDead(old.ref);
  }
  bulkMode_ = false;
}

void MasterService::installReplicasAfterBulkLoad() {
  if (params_.replication.factor <= 0) return;
  for (const auto& [segId, seg] : log_.segments()) {
    const auto* placement = replicaMgr_.placementOf(segId);
    if (placement == nullptr) continue;
    for (node::NodeId b : *placement) {
      if (BackupService* bs = directory_.backupOn(b)) {
        bs->bulkInstallFrame(node_.id(), seg, seg->appendedBytes(),
                             seg->sealed(), /*onDisk=*/seg->sealed());
      }
    }
  }
}

std::shared_ptr<const log::Segment> MasterService::findSegment(
    log::SegmentId id) const {
  if (auto s = log_.sharedSegment(id)) return s;
  for (const auto& rt : recoveries_) {
    // Side-log segments are resolved through the task's log.
    if (auto s = rt->sideSegment(id)) return s;
  }
  return nullptr;
}

void MasterService::registerMetrics(obs::MetricRegistry& reg,
                                    const std::string& prefix) {
  reg.probeCounter(prefix + ".reads", "ops", [this] {
    return static_cast<double>(stats_.reads);
  });
  reg.probeCounter(prefix + ".writes", "ops", [this] {
    return static_cast<double>(stats_.writes);
  });
  reg.probeCounter(prefix + ".removes", "ops", [this] {
    return static_cast<double>(stats_.removes);
  });
  reg.probeCounter(prefix + ".missing_keys", "ops", [this] {
    return static_cast<double>(stats_.missingKeys);
  });
  reg.probeCounter(prefix + ".unknown_tablet", "ops", [this] {
    return static_cast<double>(stats_.unknownTablet);
  });
  reg.probeCounter(prefix + ".cleaner_runs", "ops", [this] {
    return static_cast<double>(stats_.cleanerRuns);
  });
  reg.probeCounter(prefix + ".replication_failures", "ops", [this] {
    return static_cast<double>(stats_.replicationFailures);
  });
  reg.probeCounter(prefix + ".shed_requests", "ops", [this] {
    return static_cast<double>(stats_.shedRequests);
  });
  reg.probeCounter(prefix + ".cleaner_deferrals", "ops", [this] {
    return static_cast<double>(stats_.cleanerDeferrals);
  });
  reg.probeCounter(prefix + ".replication.repairs_deferred", "ops", [this] {
    return static_cast<double>(replicaMgr_.repairsDeferred());
  });
  reg.probeGauge(prefix + ".log_lock_waiters", "items", [this] {
    return static_cast<double>(logLock_.waiters());
  });
  reg.probeGauge(prefix + ".log_segments", "items", [this] {
    return static_cast<double>(log_.segments().size());
  });
  reg.probeGauge(prefix + ".objects", "items", [this] {
    return static_cast<double>(map_.size());
  });
  reg.probeHistogram(prefix + ".read_service", "us",
                     [this]() -> const sim::Histogram* {
                       return &stats_.readServiceLatency;
                     });
  reg.probeHistogram(prefix + ".write_service", "us",
                     [this]() -> const sim::Histogram* {
                       return &stats_.writeServiceLatency;
                     });
  reg.probeCounter(prefix + ".replication.bytes", "bytes", [this] {
    return static_cast<double>(replicaMgr_.bytesReplicated());
  });
  reg.probeCounter(prefix + ".replication.timeouts", "ops", [this] {
    return static_cast<double>(replicaMgr_.replicaTimeouts());
  });
  reg.probeCounter(prefix + ".replication.replacements", "ops", [this] {
    return static_cast<double>(replicaMgr_.replacementsMade());
  });
  reg.probeGauge(prefix + ".replication.pending_async", "items", [this] {
    return static_cast<double>(replicaMgr_.pendingAsyncWrites());
  });
  reg.probeCounter(prefix + ".linearize.duplicates_suppressed", "ops", [this] {
    return static_cast<double>(unacked_.duplicatesSuppressed());
  });
  reg.probeCounter(prefix + ".linearize.completion_records", "ops", [this] {
    return static_cast<double>(unacked_.completionsRecorded());
  });
  reg.probeCounter(prefix + ".linearize.records_recovered", "ops", [this] {
    return static_cast<double>(unacked_.recordsRecovered());
  });
  reg.probeCounter(prefix + ".linearize.records_gced", "ops", [this] {
    return static_cast<double>(unacked_.recordsGced());
  });
  reg.probeCounter(prefix + ".linearize.stale_rejected", "ops", [this] {
    return static_cast<double>(unacked_.staleRejected());
  });
  reg.probeCounter(prefix + ".linearize.expired_clients", "ops", [this] {
    return static_cast<double>(unacked_.clientsExpired());
  });
  reg.probeGauge(prefix + ".linearize.tracked_clients", "items", [this] {
    return static_cast<double>(unacked_.trackedClients());
  });
  reg.probeCounter(prefix + ".tx.prepares", "ops", [this] {
    return static_cast<double>(txLocks_.prepares());
  });
  reg.probeCounter(prefix + ".tx.commits", "ops", [this] {
    return static_cast<double>(txLocks_.commits());
  });
  reg.probeCounter(prefix + ".tx.aborts", "ops", [this] {
    return static_cast<double>(txLocks_.aborts());
  });
  reg.probeCounter(prefix + ".tx.conflicts", "ops", [this] {
    return static_cast<double>(txLocks_.conflicts());
  });
  reg.probeCounter(prefix + ".tx.orphans_resolved", "ops", [this] {
    return static_cast<double>(txLocks_.orphansResolved());
  });
  reg.probeCounter(prefix + ".tx.locks_recovered", "ops", [this] {
    return static_cast<double>(txLocks_.locksRecovered());
  });
  reg.probeCounter(prefix + ".tx.locks_migrated", "ops", [this] {
    return static_cast<double>(txLocks_.locksMigrated());
  });
  reg.probeCounter(prefix + ".tx.resolve_requests", "ops", [this] {
    return static_cast<double>(txResolveRequests_);
  });
  reg.probeGauge(prefix + ".tx.locks_held", "items", [this] {
    return static_cast<double>(txLocks_.locksHeld());
  });
  // Tablet heat: probes for tablets owned now, plus dynamic registration
  // for tablets gained later (recovery, migration) via addTablet.
  metricReg_ = &reg;
  metricPrefix_ = prefix;
  for (auto& [key, heat] : tabletHeat_) {
    if (!heat.registered) registerTabletHeat(key.first, key.second, heat);
  }
}

void MasterService::maybeStartCleaner() {
  if (cleanerActive_ || !log_.needsCleaning()) return;
  // Degradation ladder (docs/OVERLOAD.md): while the node is shedding, the
  // cleaner's CPU and replication bandwidth go to foreground work. Deferred,
  // not cancelled — every write completion re-checks — and the deferral
  // stops at the hard memory ceiling, where cleaning beats admission.
  if (dispatch_.underPressure() &&
      static_cast<double>(log_.memoryInUse()) <
          params_.cleanerDeferUtilization *
              static_cast<double>(log_.params().capacityBytes)) {
    ++stats_.cleanerDeferrals;
    return;
  }
  cleanerActive_ = true;
  cleanerLoop();
}

void MasterService::cleanerLoop() {
  if (!node_.cpu().poweredOn() || !log_.needsCleaning()) {
    cleanerActive_ = false;
    return;
  }
  const log::SegmentId victim = cleaner_.selectVictim(node_.sim().now());
  if (victim == log::kInvalidSegment) {
    cleanerActive_ = false;
    return;
  }
  const log::Segment* seg = log_.segment(victim);
  const std::uint64_t liveBytes = seg != nullptr ? seg->liveBytes() : 0;
  const sim::Duration cost =
      params_.cleanerPassCpu +
      sim::nsec(static_cast<sim::Duration>(
          params_.cleanerPerByteCpuNs * static_cast<double>(liveBytes)));
  // One journal span per pass; cleaner passes on a node are serialized by
  // cleanerActive_, so these spans never overlap per actor.
  std::uint64_t passSpan = 0;
  if (journal_ != nullptr) {
    passSpan = journal_->beginSpan("cleaner_pass", node_.id());
    journal_->addBytes(passSpan, liveBytes);
  }
  node_.cpu().run(cost, {power::OpClass::kCleaner, 0},
                  guard([this, victim, liveBytes, passSpan] {
    if (log_.segment(victim) != nullptr) {
      // Relocations run under the same single-threaded event, so they
      // cannot interleave with a write's append (documented simplification
      // of RAMCloud's fine-grained cleaner/append synchronisation).
      cleaner_.cleanSegment(victim, node_.sim().now());
      replicaMgr_.freeSegment(victim);
      ++stats_.cleanerRuns;
      node_.chargeDram(liveBytes, {power::OpClass::kCleaner, 0});
    }
    if (journal_ != nullptr && passSpan != 0) journal_->endSpan(passSpan);
    cleanerLoop();
  }));
}

}  // namespace rc::server
