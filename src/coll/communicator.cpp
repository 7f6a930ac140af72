#include "coll/communicator.hpp"

#include <bit>
#include <utility>

#include "coll/flare_sparse.hpp"
#include "coll/innet.hpp"
#include "coll/ring.hpp"
#include "coll/sparcml.hpp"
#include "coll/tree_cache.hpp"
#include "core/policy.hpp"
#include "net/telemetry.hpp"

namespace flare::coll {

std::string_view collective_kind_name(CollectiveKind k) {
  switch (k) {
    case CollectiveKind::kAllreduce: return "allreduce";
    case CollectiveKind::kReduce: return "reduce";
    case CollectiveKind::kBroadcast: return "broadcast";
    case CollectiveKind::kBarrier: return "barrier";
  }
  return "?";
}

std::string_view algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAuto: return "auto";
    case Algorithm::kFlareDense: return "flare-dense";
    case Algorithm::kFlareSparse: return "flare-sparse";
    case Algorithm::kHostRing: return "host-ring";
    case Algorithm::kSparcml: return "sparcml";
  }
  return "?";
}

// ===================================================== CollectiveHandle ===

const CollectiveResult& CollectiveHandle::result() const {
  FLARE_ASSERT_MSG(done(), "result() before the collective completed");
  return state_->result;
}

// ================================================= PersistentCollective ===

PersistentCollective::PersistentCollective() = default;

PersistentCollective::PersistentCollective(
    PersistentCollective&& other) noexcept {
  *this = std::move(other);
}

PersistentCollective& PersistentCollective::operator=(
    PersistentCollective&& other) noexcept {
  if (this != &other) {
    release();
    comm_ = std::exchange(other.comm_, nullptr);
    desc_ = std::move(other.desc_);
    cfg_ = other.cfg_;
    report_ = std::move(other.report_);
    op_ = std::move(other.op_);
    iterations_ = other.iterations_;
  }
  return *this;
}

PersistentCollective::~PersistentCollective() { release(); }

bool PersistentCollective::in_network() const {
  return op_ != nullptr && op_->current_tree() != nullptr;
}

const ReductionTree& PersistentCollective::tree() const {
  const ReductionTree* live =
      op_ != nullptr ? op_->current_tree() : nullptr;
  FLARE_ASSERT_MSG(live != nullptr,
                   "tree() on a host-plane persistent (no installed tree)");
  return *live;
}

u32 PersistentCollective::migrations() const {
  return op_ != nullptr ? op_->migrations() : 0;
}

u32 PersistentCollective::planned_migrations() const {
  return op_ != nullptr ? op_->planned_migrations() : 0;
}

bool PersistentCollective::plan_migration(const ReductionTree& target) {
  return op_ != nullptr && op_->plan_migration(target);
}

#if FLARE_VALIDATE_ENABLED
bool PersistentCollective::debug_break_next_plan_apply() {
  return op_ != nullptr && op_->debug_break_next_plan_apply();
}
#endif

void PersistentCollective::release() {
  if (op_ != nullptr) op_->release_install();
  op_.reset();
  report_.tree.reset();
  comm_ = nullptr;
}

CollectiveHandle PersistentCollective::start(CompletionFn on_complete) {
  FLARE_ASSERT_MSG(ok(), "start() on a rejected persistent collective");
  auto state = std::make_shared<detail::OpState>();
  state->on_complete = std::move(on_complete);
  CollectiveHandle handle(state);
  // Install-once / run-many: the op resets per-iteration engine state on
  // every tree switch (and transparently reinstalls after a fabric fault)
  // inside begin(); the admission slot and tree roles otherwise stay put.
  op_->begin(desc_.seed + iterations_, std::move(state));
  iterations_ += 1;
  return handle;
}

CollectiveResult PersistentCollective::run() {
  FLARE_ASSERT_MSG(comm_ != nullptr, "run() on a released collective");
  CollectiveHandle handle = start({});
  comm_->network().sim().run();
  FLARE_ASSERT_MSG(handle.done(),
                   "calendar drained without completing the collective");
  return handle.result();
}

// ======================================================== Communicator ====

Communicator::Communicator(net::Network& net,
                           std::vector<net::Host*> participants,
                           CommunicatorConfig cfg)
    : net_(net), participants_(std::move(participants)),
      cfg_(std::move(cfg)) {
  FLARE_ASSERT_MSG(!participants_.empty(),
                   "a communicator needs at least one participant");
  if (cfg_.manager != nullptr) {
    manager_ = cfg_.manager;
  } else {
    owned_manager_ = std::make_unique<NetworkManager>(net_);
    manager_ = owned_manager_.get();
  }
  if (cfg_.monitor != nullptr && owned_manager_ != nullptr) {
    // Congestion-aware embedding: the monitor's edge costs drive the
    // manager's tree search.  Installed on the PRIVATE manager only — its
    // lifetime ends with this session, so the captured monitor pointer
    // can never dangle into other sessions.  A shared manager keeps
    // whatever provider its owner (e.g. the service layer) set.
    net::CongestionMonitor* monitor = cfg_.monitor;
    manager_->set_link_cost([monitor](net::NodeId node, u32 port) {
      return monitor->edge_cost(node, port);
    });
  }
}

Communicator::~Communicator() = default;

Algorithm Communicator::resolve_algorithm(
    const CollectiveOptions& desc) const {
  if (desc.algorithm != Algorithm::kAuto) return desc.algorithm;
  if (desc.sparse.pairs != nullptr || desc.sparse.epoch_pairs != nullptr) {
    return Algorithm::kFlareSparse;
  }
  return Algorithm::kFlareDense;
}

namespace {

/// SparCML's recursive doubling serves power-of-two groups only; the kAuto
/// admission fallback must not construct it for other sizes.
bool sparcml_feasible(std::size_t participants) {
  return std::has_single_bit(participants);
}

}  // namespace

core::AllreduceConfig Communicator::make_config(
    const CollectiveOptions& desc, Algorithm alg) const {
  core::AllreduceConfig cfg;
  cfg.id = manager_->next_id();
  // The attribution tag outlives the id: every fresh-id reinstall keeps
  // cfg.trace, so link accounting sees one tenant across recoveries.
  cfg.trace = net_.alloc_trace_id();
  cfg.dtype = desc.dtype;
  cfg.fault_recovery = desc.retransmit_timeout_ps > 0;
  const u32 esize = core::dtype_size(desc.dtype);
  if (alg == Algorithm::kFlareSparse) {
    // In-network sparse allreduce (Section 7): hash stores below the root,
    // array at the root (the manager flips hash_storage per switch).
    cfg.op = core::ReduceOp(core::OpKind::kSum);
    cfg.policy = core::AggPolicy::kSingleBuffer;
    cfg.sparse = true;
    cfg.block_span = desc.sparse.block_span;
    cfg.pairs_per_packet =
        core::sparse_pairs_per_packet(desc.packet_payload, desc.dtype);
    cfg.hash_capacity_pairs = desc.hash_capacity_pairs;
    cfg.spill_capacity_pairs = desc.spill_capacity_pairs;
    return cfg;
  }
  switch (desc.kind) {
    case CollectiveKind::kAllreduce:
    case CollectiveKind::kReduce: {
      cfg.op = core::ReduceOp(desc.op);
      FLARE_ASSERT(desc.packet_payload >= esize);
      cfg.elems_per_packet =
          static_cast<u32>(desc.packet_payload / esize);
      cfg.reproducible = desc.reproducible;
      if (desc.auto_policy) {
        const core::PolicyChoice choice =
            core::select_policy(desc.data_bytes, desc.reproducible);
        cfg.policy = choice.policy;
        cfg.num_buffers = choice.num_buffers;
      } else {
        cfg.policy =
            desc.reproducible ? core::AggPolicy::kTree : desc.policy;
        cfg.num_buffers = 1;
      }
      break;
    }
    case CollectiveKind::kBroadcast:
      cfg.op = core::ReduceOp(core::OpKind::kSum);
      FLARE_ASSERT(desc.packet_payload >= esize);
      cfg.elems_per_packet =
          static_cast<u32>(desc.packet_payload / esize);
      cfg.policy = core::AggPolicy::kTree;
      break;
    case CollectiveKind::kBarrier:
      cfg.dtype = core::DType::kInt32;
      cfg.elems_per_packet = 0;  // 0-byte blocks (Section 8)
      cfg.policy = core::AggPolicy::kSingleBuffer;
      break;
  }
  return cfg;
}

InstallReport Communicator::install(const CollectiveOptions& desc,
                                    const core::AllreduceConfig& cfg,
                                    bool sparse) {
  // Placement decisions read the fabric as it is NOW, not as it was at the
  // monitor's last scheduled sample.
  if (cfg_.monitor != nullptr) cfg_.monitor->sample();
  const f64 bps = resolved_switch_service_bps(desc, sparse);
  if (!cfg_.roots.empty()) {
    return manager_->install_with_roots(participants_, cfg, bps, cfg_.roots,
                                        cfg_.cache);
  }
  return manager_->install_with_retry(participants_, cfg, bps);
}

void Communicator::reap() {
  std::erase_if(ops_, [](const std::unique_ptr<detail::OpBase>& op) {
    return op->reapable();
  });
}

std::unique_ptr<detail::OpBase> Communicator::make_host_op(
    const CollectiveOptions& desc, Algorithm alg) {
  FLARE_ASSERT_MSG(desc.kind == CollectiveKind::kAllreduce,
                   "the host data planes serve allreduce only");
  if (alg == Algorithm::kSparcml) {
    CollectiveOptions sdesc = desc;
    sdesc.algorithm = Algorithm::kSparcml;
    return std::make_unique<detail::SparcmlOp>(net_, participants_, sdesc);
  }
  FLARE_ASSERT(alg == Algorithm::kHostRing);
  CollectiveOptions rdesc = desc;
  rdesc.algorithm = Algorithm::kHostRing;
  return std::make_unique<detail::RingOp>(net_, participants_, rdesc);
}

std::unique_ptr<detail::OpBase> Communicator::make_op(
    const CollectiveOptions& desc, bool owns_install,
    core::AllreduceConfig& cfg, InstallReport& report) {
  if (desc.kind == CollectiveKind::kReduce ||
      desc.kind == CollectiveKind::kBroadcast) {
    FLARE_ASSERT_MSG(desc.root < participants_.size(),
                     "root must index the participant group");
  }
  const Algorithm alg = resolve_algorithm(desc);
  if (alg == Algorithm::kHostRing || alg == Algorithm::kSparcml) {
    // Host data planes need no switch state.
    return make_host_op(desc, alg);
  }
  const bool sparse = alg == Algorithm::kFlareSparse;
  FLARE_ASSERT_MSG(alg == Algorithm::kFlareDense || sparse,
                   "unresolved algorithm");
  if (sparse) {
    FLARE_ASSERT_MSG(desc.kind == CollectiveKind::kAllreduce,
                     "sparse engines serve allreduce only");
    FLARE_ASSERT_MSG(desc.sparse.pairs != nullptr ||
                         desc.sparse.epoch_pairs != nullptr,
                     "sparse collective without a sparse workload");
  }
  cfg = make_config(desc, alg);
  report = install(desc, cfg, sparse);
  if (!report) {
    if (desc.algorithm == Algorithm::kAuto &&
        desc.kind == CollectiveKind::kAllreduce &&
        (!sparse || sparcml_feasible(participants_.size()))) {
      // The paper's admission policy: fall back to the host data plane
      // (the ring; SparCML for sparse workloads).
      return make_host_op(desc, sparse ? Algorithm::kSparcml
                                       : Algorithm::kHostRing);
    }
    return nullptr;
  }
  // A persistent op keeps its own copy of the tree; the report's copy
  // backs install_report() and survives moves of the PersistentCollective.
  ReductionTree tree = owns_install ? std::move(*report) : *report;
  if (sparse) {
    return std::make_unique<detail::SparseOp>(
        net_, *manager_, participants_, desc, cfg, std::move(tree),
        owns_install, cfg_.monitor);
  }
  return std::make_unique<detail::InNetOp>(
      net_, *manager_, participants_, desc, cfg, std::move(tree),
      owns_install, cfg_.monitor);
}

CollectiveHandle Communicator::start_op(
    std::unique_ptr<detail::OpBase> op, u64 seed, CompletionFn on_complete) {
  auto state = std::make_shared<detail::OpState>();
  state->on_complete = std::move(on_complete);
  CollectiveHandle handle(state);
  detail::OpBase* raw = op.get();
  ops_.push_back(std::move(op));
  raw->begin(seed, std::move(state));
  return handle;
}

CollectiveHandle Communicator::start(const CollectiveOptions& desc,
                                     CompletionFn on_complete) {
  reap();
  core::AllreduceConfig cfg;
  InstallReport report;
  std::unique_ptr<detail::OpBase> op =
      make_op(desc, /*owns_install=*/true, cfg, report);
  if (op == nullptr) {
    // Explicit in-network request rejected by admission: report failure
    // through an immediately-complete handle.
    auto state = std::make_shared<detail::OpState>();
    state->done = true;
    if (on_complete) on_complete(state->result);
    return CollectiveHandle(std::move(state));
  }
  return start_op(std::move(op), desc.seed, std::move(on_complete));
}

CollectiveResult Communicator::run(const CollectiveOptions& desc) {
  CollectiveHandle handle = start(desc, {});
  net_.sim().run();
  FLARE_ASSERT_MSG(handle.done(),
                   "calendar drained without completing the collective");
  return handle.result();
}

PersistentCollective Communicator::persistent(const CollectiveOptions& desc) {
  PersistentCollective pc;
  pc.comm_ = this;
  pc.desc_ = desc;
  // !ok() when admission rejects the install and no fallback applies.
  pc.op_ = make_op(desc, /*owns_install=*/false, pc.cfg_, pc.report_);
  return pc;
}

}  // namespace flare::coll
