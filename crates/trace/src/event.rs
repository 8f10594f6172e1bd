//! Trace event vocabulary and the deterministic JSON encoding.
//!
//! Every observable action in the stack maps to exactly one
//! [`TraceEvent`] variant. Variants are grouped into coarse
//! [`EventCategory`] buckets (one per instrumented subsystem) so tests
//! and dashboards can assert coverage without enumerating every kind.
//!
//! The JSON encoding is hand-rolled (this crate has no dependencies)
//! and **byte-for-byte deterministic**: field order is fixed by the
//! code below, integers print in decimal, and floats print via Rust's
//! shortest-roundtrip `{:?}` formatting. See `docs/OBSERVABILITY.md`
//! for the full schema reference.

use crate::span::{MsgId, SpanId};
use std::fmt::Write as _;

/// What happened to a simulated UDP `send` (mirrors the outcome enum
/// of the network layer without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendKind {
    /// Handed to the radio (may still be lost in the air).
    Transmitted,
    /// Held in the one-slot kernel buffer (weak-signal blocking).
    Held,
    /// Silently dropped at the sender: kernel buffer already full.
    Discarded,
}

impl SendKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SendKind::Transmitted => "transmitted",
            SendKind::Held => "held",
            SendKind::Discarded => "discarded",
        }
    }
}

/// Coarse event grouping, one per instrumented subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventCategory {
    /// Mission lifecycle and per-cycle progress.
    Mission,
    /// Causal span boundaries (one span per control cycle).
    Span,
    /// Pub/sub bus activity (publishes, queue drops).
    Bus,
    /// Simulated UDP channel activity (sends, radio losses).
    Channel,
    /// Round-trip-time samples from echoed stamps.
    Rtt,
    /// Per-node processing-time samples from the Profiler.
    Profile,
    /// Runtime Controller decisions (Algorithm 1 + Algorithm 2).
    Control,
    /// Thread-governor recommendations (§VIII-E).
    Governor,
    /// Energy-ledger deltas (Eq. 1a components).
    Energy,
    /// Placement switches and node-state migration transfers.
    Migration,
    /// Injected fault windows opening and closing.
    Fault,
    /// Elastic shared-cloud activity: batched admissions and replica
    /// autoscaling (emitted only by fleet runs with a shared cloud).
    Cloud,
    /// Regional fleet sharding: vehicle→region placement and
    /// cross-region WAN hops (emitted only by sharded fleet runs).
    Region,
}

impl EventCategory {
    /// Every category, in a fixed documentation order.
    pub const ALL: [EventCategory; 13] = [
        EventCategory::Mission,
        EventCategory::Span,
        EventCategory::Bus,
        EventCategory::Channel,
        EventCategory::Rtt,
        EventCategory::Profile,
        EventCategory::Control,
        EventCategory::Governor,
        EventCategory::Energy,
        EventCategory::Migration,
        EventCategory::Fault,
        EventCategory::Cloud,
        EventCategory::Region,
    ];

    /// Stable lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventCategory::Mission => "mission",
            EventCategory::Span => "span",
            EventCategory::Bus => "bus",
            EventCategory::Channel => "channel",
            EventCategory::Rtt => "rtt",
            EventCategory::Profile => "profile",
            EventCategory::Control => "control",
            EventCategory::Governor => "governor",
            EventCategory::Energy => "energy",
            EventCategory::Migration => "migration",
            EventCategory::Fault => "fault",
            EventCategory::Cloud => "cloud",
            EventCategory::Region => "region",
        }
    }
}

/// One structured observation from the instrumented stack.
///
/// All timestamps and durations are virtual-time nanoseconds (`u64`),
/// never wall-clock — traces replay identically for a given seed.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A mission began.
    MissionStart {
        /// Workload name (`Navigation` / `Exploration`).
        workload: String,
        /// Deployment label (Fig. 12/13 scenario).
        deployment: String,
        /// Master seed (replays of the same seed produce identical
        /// traces).
        seed: u64,
    },
    /// One control cycle's position/goal/battery snapshot.
    MissionProgress {
        /// Ground-truth x (m).
        x: f64,
        /// Ground-truth y (m).
        y: f64,
        /// Current goal x (m).
        goal_x: f64,
        /// Current goal y (m).
        goal_y: f64,
        /// Straight-line distance to the goal (m).
        goal_dist: f64,
        /// Battery state of charge in [0, 1].
        battery_soc: f64,
    },
    /// The mission ended.
    MissionEnd {
        /// Whether the goal was achieved within the caps.
        completed: bool,
        /// Human-readable reason.
        reason: String,
    },
    /// A causal span opened (one per 200 ms control cycle).
    SpanBegin {
        /// The span's id; every record emitted until the matching
        /// [`TraceEvent::SpanEnd`] carries it in its envelope.
        span: SpanId,
        /// Span name (`cycle` for control cycles).
        name: String,
        /// Ordinal of this span among same-named spans (cycle number).
        index: u64,
    },
    /// A causal span closed.
    SpanEnd {
        /// The span that closed.
        span: SpanId,
    },
    /// A message was published on a bus topic.
    BusPublish {
        /// Topic name.
        topic: String,
        /// Serialized payload size.
        bytes: u64,
        /// Number of subscriber queues the bytes fanned out to.
        fanout: u32,
        /// Lineage id allocated to this message.
        msg: MsgId,
        /// Origin message when this publish relays another message
        /// across hosts ([`MsgId::NONE`] for fresh publishes).
        parent: MsgId,
    },
    /// A full bounded subscriber queue dropped its oldest message
    /// (the freshness-over-completeness policy in action).
    BusDrop {
        /// Topic name.
        topic: String,
        /// Lineage id of the dropped (oldest) message.
        msg: MsgId,
    },
    /// A datagram was offered to a simulated UDP channel.
    ChannelSend {
        /// Channel direction label (`up` / `down` / `tcp`).
        dir: String,
        /// Channel sequence number.
        seq: u64,
        /// Payload size.
        bytes: u64,
        /// What the driver did with it.
        outcome: SendKind,
        /// Lineage id of the bus message inside the datagram
        /// ([`MsgId::NONE`] for control chatter such as acks).
        msg: MsgId,
    },
    /// A transmitted datagram was lost in the air.
    ChannelLoss {
        /// Channel direction label.
        dir: String,
        /// Channel sequence number.
        seq: u64,
        /// Lineage id of the lost datagram's message.
        msg: MsgId,
    },
    /// A datagram reached the receive queue (emitted at the tick that
    /// observed the arrival; `latency_ns` is the true channel latency
    /// including any time parked in the kernel buffer).
    ChannelDeliver {
        /// Channel direction label.
        dir: String,
        /// Channel sequence number.
        seq: u64,
        /// Lineage id of the delivered message.
        msg: MsgId,
        /// `arrived_at - sent_at` for the datagram.
        latency_ns: u64,
    },
    /// A round-trip-time sample from an echoed stamp.
    RttSample {
        /// The measured RTT.
        rtt_ns: u64,
    },
    /// The Profiler recorded a node's processing time.
    ProfileSample {
        /// Node name.
        node: String,
        /// Whether the node ran on the remote platform.
        remote: bool,
        /// Processing time.
        nanos: u64,
        /// Lineage id of the message the activation consumed
        /// ([`MsgId::NONE`] when the input did not ride the bus).
        msg: MsgId,
    },
    /// One runtime-Controller evaluation: the Algorithm 1 makespan
    /// inputs, the Algorithm 2 network inputs, and the outputs.
    ControlDecision {
        /// `T_l^v`: all-local VDP makespan estimate.
        local_vdp_ns: u64,
        /// `T_c`: offloaded VDP makespan estimate (network included).
        cloud_vdp_ns: u64,
        /// Packet bandwidth `r_t` (packets/s).
        bandwidth: f64,
        /// Signal direction `d_t` (positive = approaching the WAP).
        direction: f64,
        /// Whether the VDP runs remotely this cycle.
        vdp_remote: bool,
        /// Eq. 2c maximum linear velocity in force.
        max_linear: f64,
        /// Algorithm 2 verdict (`keep` / `invoke_local` /
        /// `invoke_remote`).
        net_decision: String,
    },
    /// One offload-policy decision tick: which `OffloadPolicy`
    /// implementation produced this cycle's placement plan and what it
    /// chose (the decision-layer counterpart of
    /// [`TraceEvent::ControlDecision`], which records the applied
    /// actuation outputs).
    PolicyDecide {
        /// Policy name (`algorithm1` / `global` / `bandit`).
        policy: String,
        /// Chosen remote node set (`+`-joined short names, `-` when
        /// everything stays on the vehicle).
        remote: String,
        /// The plan's expected VDP makespan.
        expected_vdp_ns: u64,
        /// The plan's advisory Eq. 2c velocity.
        max_velocity: f64,
    },
    /// A thread-governor recommendation (§VIII-E).
    GovernorDecision {
        /// Mean velocity-gap ratio over the window.
        mean_gap: f64,
        /// Recommended remote thread count.
        threads: u32,
    },
    /// Energy accumulated by one component since the previous delta.
    EnergyDelta {
        /// Component name (Fig. 13 bar).
        component: String,
        /// Joules added.
        joules: f64,
    },
    /// Algorithm 2 switched the placement.
    NetSwitch {
        /// `true` = nodes now invoked remotely, `false` = locally.
        to_remote: bool,
    },
    /// A node-state migration transfer started.
    MigrationStart {
        /// Total state bytes being shipped.
        bytes: u64,
    },
    /// The in-flight migration delivered its last segment.
    MigrationCommit {
        /// Transfer duration.
        elapsed_ns: u64,
        /// Cumulative reliable-channel transmission attempts.
        attempts: u64,
    },
    /// The in-flight migration was abandoned (state rebuilt from
    /// fresh sensor data instead).
    MigrationAbort,
    /// A scripted fault window opened.
    FaultBegin {
        /// Fault kind label (`blackout` / `burst_loss` /
        /// `latency_spike` / `corruption` / `remote_crash`).
        fault: String,
        /// Index of the window in the mission's fault schedule (pairs
        /// this event with its [`TraceEvent::FaultEnd`]).
        window: u64,
        /// Scripted length of the window.
        window_ns: u64,
    },
    /// A scripted fault window closed.
    FaultEnd {
        /// Fault kind label (as in [`TraceEvent::FaultBegin`]).
        fault: String,
        /// Index of the window in the mission's fault schedule.
        window: u64,
    },
    /// The cloud-liveness heartbeat expired: downlink silence under a
    /// healthy radio, so the remote host is presumed dead and the
    /// Controller invokes nodes locally at once (no outage-watchdog
    /// wait).
    HeartbeatMiss {
        /// How long the downlink had been silent when the heartbeat
        /// fired.
        silence_ns: u64,
    },
    /// A node-state migration overran its deadline and was aborted
    /// (the destination rebuilds state from fresh sensor data).
    MigrationTimeout {
        /// How long the transfer had been running.
        elapsed_ns: u64,
        /// Total state bytes the transfer was shipping.
        bytes: u64,
    },
    /// Algorithm 2 wanted to re-offload but the exponential backoff
    /// after a recent offload failure suppressed the switch.
    ReoffloadBackoff {
        /// Time remaining until re-offload is allowed again.
        wait_ns: u64,
        /// Consecutive offload failures behind the current backoff.
        failures: u64,
    },
    /// This vehicle's same-stage cloud request coalesced into a
    /// batched execution with other tenants' requests from the same
    /// contention window (the elastic scheduler's batched admission).
    CloudBatch {
        /// Coalesced stage label (`NodeKind` short name, e.g. `slam`).
        stage: String,
        /// Distinct tenants sharing the batch after this join (≥ 2).
        occupancy: u64,
        /// Contention-window index the batch formed in.
        window: u64,
        /// Marginal compute this join added instead of a full
        /// independent execution.
        marginal_ns: u64,
    },
    /// The elastic cloud's replica pool scaled at a contention-window
    /// boundary (attributed to the vehicle whose admission crossed the
    /// boundary and observed the decision).
    CloudScale {
        /// Provisioned replicas before the decision.
        from_replicas: u32,
        /// Provisioned replicas after (spin-up lag still applies
        /// before an added replica serves).
        to_replicas: u32,
        /// The previous-window utilization that triggered it.
        utilization: f64,
        /// Window index the new pool size takes effect in.
        window: u64,
    },
    /// A checkpoint transfer of offloaded node state completed: crash
    /// recovery can now resume from this snapshot instead of a cold
    /// rebuild.
    Checkpoint {
        /// Snapshot size shipped over the migration TCP path.
        bytes: u64,
        /// Transfer duration.
        elapsed_ns: u64,
    },
    /// Sustained stress (blackout or exhausted re-offload backoff)
    /// dropped the local pipeline to reduced fidelity so the control
    /// deadline keeps being met on vehicle silicon.
    DegradeEnter {
        /// What tripped the trigger (`blackout` / `backoff`).
        cause: String,
        /// SLAM particle count in force while degraded.
        slam_particles: u64,
        /// DWA trajectory-sample budget in force while degraded.
        dwa_samples: u64,
    },
    /// Sustained health restored full pipeline fidelity.
    DegradeExit {
        /// How long the degraded mode was held.
        held_ns: u64,
        /// Control cycles that missed their deadline while degraded.
        missed_cycles: u64,
    },
    /// A scripted cloud-replica crash window opened: the affected
    /// replicas stop serving (capacity shrinks) but keep billing.
    ReplicaCrash {
        /// Replicas taken down by this window.
        replicas: u64,
        /// Index of the window in the cloud fault schedule.
        window: u64,
        /// Scripted length of the window.
        window_ns: u64,
    },
    /// A scripted straggler window opened: admissions land on a slow
    /// replica and their queueing + execution stretch by `factor`.
    ReplicaStraggle {
        /// Service-time multiplier while the window is open (> 1).
        factor: f64,
        /// Index of the window in the cloud fault schedule.
        window: u64,
        /// Scripted length of the window.
        window_ns: u64,
    },
    /// A sharded fleet placed this vehicle: its floorplan stall falls
    /// in `region` (which owns the WAP it uplinks through) and its
    /// offloaded stages are served by scheduler pool `cloud_pool`.
    RegionAssign {
        /// Radio region (floorplan stripe) the vehicle parks in.
        region: u32,
        /// Cloud scheduler pool serving the region (`region %
        /// cloud_pools`).
        cloud_pool: u32,
        /// Whether the pool is homed in another region, so every
        /// admission pays the deterministic WAN hop.
        wan: bool,
    },
    /// A remote admission from a vehicle whose serving cloud pool is
    /// homed in another region paid the deterministic WAN hop.
    WanHop {
        /// Region the vehicle (and its WAP) lives in.
        from_region: u32,
        /// Region the serving scheduler pool is homed in.
        to_region: u32,
        /// The hop surcharge added to the remote processing time.
        delay_ns: u64,
    },
}

impl TraceEvent {
    /// Stable snake-case kind name (the JSON `kind` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MissionStart { .. } => "mission_start",
            TraceEvent::MissionProgress { .. } => "mission_progress",
            TraceEvent::MissionEnd { .. } => "mission_end",
            TraceEvent::SpanBegin { .. } => "span_begin",
            TraceEvent::SpanEnd { .. } => "span_end",
            TraceEvent::BusPublish { .. } => "bus_publish",
            TraceEvent::BusDrop { .. } => "bus_drop",
            TraceEvent::ChannelSend { .. } => "channel_send",
            TraceEvent::ChannelLoss { .. } => "channel_loss",
            TraceEvent::ChannelDeliver { .. } => "channel_deliver",
            TraceEvent::RttSample { .. } => "rtt_sample",
            TraceEvent::ProfileSample { .. } => "profile_sample",
            TraceEvent::ControlDecision { .. } => "control_decision",
            TraceEvent::PolicyDecide { .. } => "policy_decide",
            TraceEvent::GovernorDecision { .. } => "governor_decision",
            TraceEvent::EnergyDelta { .. } => "energy_delta",
            TraceEvent::NetSwitch { .. } => "net_switch",
            TraceEvent::MigrationStart { .. } => "migration_start",
            TraceEvent::MigrationCommit { .. } => "migration_commit",
            TraceEvent::MigrationAbort => "migration_abort",
            TraceEvent::FaultBegin { .. } => "fault_begin",
            TraceEvent::FaultEnd { .. } => "fault_end",
            TraceEvent::HeartbeatMiss { .. } => "heartbeat_miss",
            TraceEvent::MigrationTimeout { .. } => "migration_timeout",
            TraceEvent::ReoffloadBackoff { .. } => "reoffload_backoff",
            TraceEvent::CloudBatch { .. } => "cloud_batch",
            TraceEvent::CloudScale { .. } => "cloud_scale",
            TraceEvent::Checkpoint { .. } => "checkpoint",
            TraceEvent::DegradeEnter { .. } => "degrade_enter",
            TraceEvent::DegradeExit { .. } => "degrade_exit",
            TraceEvent::ReplicaCrash { .. } => "replica_crash",
            TraceEvent::ReplicaStraggle { .. } => "replica_straggle",
            TraceEvent::RegionAssign { .. } => "region_assign",
            TraceEvent::WanHop { .. } => "wan_hop",
        }
    }

    /// The coarse subsystem bucket this event belongs to.
    pub fn category(&self) -> EventCategory {
        match self {
            TraceEvent::MissionStart { .. }
            | TraceEvent::MissionProgress { .. }
            | TraceEvent::MissionEnd { .. } => EventCategory::Mission,
            TraceEvent::SpanBegin { .. } | TraceEvent::SpanEnd { .. } => EventCategory::Span,
            TraceEvent::BusPublish { .. } | TraceEvent::BusDrop { .. } => EventCategory::Bus,
            TraceEvent::ChannelSend { .. }
            | TraceEvent::ChannelLoss { .. }
            | TraceEvent::ChannelDeliver { .. } => EventCategory::Channel,
            TraceEvent::RttSample { .. } => EventCategory::Rtt,
            TraceEvent::ProfileSample { .. } => EventCategory::Profile,
            TraceEvent::ControlDecision { .. } | TraceEvent::PolicyDecide { .. } => {
                EventCategory::Control
            }
            TraceEvent::GovernorDecision { .. } => EventCategory::Governor,
            TraceEvent::EnergyDelta { .. } => EventCategory::Energy,
            TraceEvent::NetSwitch { .. }
            | TraceEvent::MigrationStart { .. }
            | TraceEvent::MigrationCommit { .. }
            | TraceEvent::MigrationAbort
            | TraceEvent::MigrationTimeout { .. }
            | TraceEvent::Checkpoint { .. } => EventCategory::Migration,
            TraceEvent::HeartbeatMiss { .. }
            | TraceEvent::ReoffloadBackoff { .. }
            | TraceEvent::DegradeEnter { .. }
            | TraceEvent::DegradeExit { .. } => EventCategory::Control,
            TraceEvent::FaultBegin { .. } | TraceEvent::FaultEnd { .. } => EventCategory::Fault,
            TraceEvent::CloudBatch { .. }
            | TraceEvent::CloudScale { .. }
            | TraceEvent::ReplicaCrash { .. }
            | TraceEvent::ReplicaStraggle { .. } => EventCategory::Cloud,
            TraceEvent::RegionAssign { .. } | TraceEvent::WanHop { .. } => EventCategory::Region,
        }
    }

    /// Append this event's fields (past `kind`) to a JSON object body.
    fn write_fields(&self, out: &mut String) {
        match self {
            TraceEvent::MissionStart {
                workload,
                deployment,
                seed,
            } => {
                field_str(out, "workload", workload);
                field_str(out, "deployment", deployment);
                field_u64(out, "seed", *seed);
            }
            TraceEvent::MissionProgress {
                x,
                y,
                goal_x,
                goal_y,
                goal_dist,
                battery_soc,
            } => {
                field_f64(out, "x", *x);
                field_f64(out, "y", *y);
                field_f64(out, "goal_x", *goal_x);
                field_f64(out, "goal_y", *goal_y);
                field_f64(out, "goal_dist", *goal_dist);
                field_f64(out, "battery_soc", *battery_soc);
            }
            TraceEvent::MissionEnd { completed, reason } => {
                field_bool(out, "completed", *completed);
                field_str(out, "reason", reason);
            }
            TraceEvent::SpanBegin { span, name, index } => {
                field_u64(out, "span_id", span.0);
                field_str(out, "name", name);
                field_u64(out, "index", *index);
            }
            TraceEvent::SpanEnd { span } => {
                field_u64(out, "span_id", span.0);
            }
            TraceEvent::BusPublish {
                topic,
                bytes,
                fanout,
                msg,
                parent,
            } => {
                field_str(out, "topic", topic);
                field_u64(out, "bytes", *bytes);
                field_u64(out, "fanout", u64::from(*fanout));
                field_u64(out, "msg", msg.0);
                field_u64(out, "parent", parent.0);
            }
            TraceEvent::BusDrop { topic, msg } => {
                field_str(out, "topic", topic);
                field_u64(out, "msg", msg.0);
            }
            TraceEvent::ChannelSend {
                dir,
                seq,
                bytes,
                outcome,
                msg,
            } => {
                field_str(out, "dir", dir);
                field_u64(out, "seq", *seq);
                field_u64(out, "bytes", *bytes);
                field_str(out, "outcome", outcome.as_str());
                field_u64(out, "msg", msg.0);
            }
            TraceEvent::ChannelLoss { dir, seq, msg } => {
                field_str(out, "dir", dir);
                field_u64(out, "seq", *seq);
                field_u64(out, "msg", msg.0);
            }
            TraceEvent::ChannelDeliver {
                dir,
                seq,
                msg,
                latency_ns,
            } => {
                field_str(out, "dir", dir);
                field_u64(out, "seq", *seq);
                field_u64(out, "msg", msg.0);
                field_u64(out, "latency_ns", *latency_ns);
            }
            TraceEvent::RttSample { rtt_ns } => {
                field_u64(out, "rtt_ns", *rtt_ns);
            }
            TraceEvent::ProfileSample {
                node,
                remote,
                nanos,
                msg,
            } => {
                field_str(out, "node", node);
                field_bool(out, "remote", *remote);
                field_u64(out, "nanos", *nanos);
                field_u64(out, "msg", msg.0);
            }
            TraceEvent::ControlDecision {
                local_vdp_ns,
                cloud_vdp_ns,
                bandwidth,
                direction,
                vdp_remote,
                max_linear,
                net_decision,
            } => {
                field_u64(out, "local_vdp_ns", *local_vdp_ns);
                field_u64(out, "cloud_vdp_ns", *cloud_vdp_ns);
                field_f64(out, "bandwidth", *bandwidth);
                field_f64(out, "direction", *direction);
                field_bool(out, "vdp_remote", *vdp_remote);
                field_f64(out, "max_linear", *max_linear);
                field_str(out, "net_decision", net_decision);
            }
            TraceEvent::PolicyDecide {
                policy,
                remote,
                expected_vdp_ns,
                max_velocity,
            } => {
                field_str(out, "policy", policy);
                field_str(out, "remote", remote);
                field_u64(out, "expected_vdp_ns", *expected_vdp_ns);
                field_f64(out, "max_velocity", *max_velocity);
            }
            TraceEvent::GovernorDecision { mean_gap, threads } => {
                field_f64(out, "mean_gap", *mean_gap);
                field_u64(out, "threads", u64::from(*threads));
            }
            TraceEvent::EnergyDelta { component, joules } => {
                field_str(out, "component", component);
                field_f64(out, "joules", *joules);
            }
            TraceEvent::NetSwitch { to_remote } => {
                field_bool(out, "to_remote", *to_remote);
            }
            TraceEvent::MigrationStart { bytes } => {
                field_u64(out, "bytes", *bytes);
            }
            TraceEvent::MigrationCommit {
                elapsed_ns,
                attempts,
            } => {
                field_u64(out, "elapsed_ns", *elapsed_ns);
                field_u64(out, "attempts", *attempts);
            }
            TraceEvent::MigrationAbort => {}
            TraceEvent::FaultBegin {
                fault,
                window,
                window_ns,
            } => {
                field_str(out, "fault", fault);
                field_u64(out, "window", *window);
                field_u64(out, "window_ns", *window_ns);
            }
            TraceEvent::FaultEnd { fault, window } => {
                field_str(out, "fault", fault);
                field_u64(out, "window", *window);
            }
            TraceEvent::HeartbeatMiss { silence_ns } => {
                field_u64(out, "silence_ns", *silence_ns);
            }
            TraceEvent::MigrationTimeout { elapsed_ns, bytes } => {
                field_u64(out, "elapsed_ns", *elapsed_ns);
                field_u64(out, "bytes", *bytes);
            }
            TraceEvent::ReoffloadBackoff { wait_ns, failures } => {
                field_u64(out, "wait_ns", *wait_ns);
                field_u64(out, "failures", *failures);
            }
            TraceEvent::CloudBatch {
                stage,
                occupancy,
                window,
                marginal_ns,
            } => {
                field_str(out, "stage", stage);
                field_u64(out, "occupancy", *occupancy);
                field_u64(out, "window", *window);
                field_u64(out, "marginal_ns", *marginal_ns);
            }
            TraceEvent::CloudScale {
                from_replicas,
                to_replicas,
                utilization,
                window,
            } => {
                field_u64(out, "from_replicas", u64::from(*from_replicas));
                field_u64(out, "to_replicas", u64::from(*to_replicas));
                field_f64(out, "utilization", *utilization);
                field_u64(out, "window", *window);
            }
            TraceEvent::Checkpoint { bytes, elapsed_ns } => {
                field_u64(out, "bytes", *bytes);
                field_u64(out, "elapsed_ns", *elapsed_ns);
            }
            TraceEvent::DegradeEnter {
                cause,
                slam_particles,
                dwa_samples,
            } => {
                field_str(out, "cause", cause);
                field_u64(out, "slam_particles", *slam_particles);
                field_u64(out, "dwa_samples", *dwa_samples);
            }
            TraceEvent::DegradeExit {
                held_ns,
                missed_cycles,
            } => {
                field_u64(out, "held_ns", *held_ns);
                field_u64(out, "missed_cycles", *missed_cycles);
            }
            TraceEvent::ReplicaCrash {
                replicas,
                window,
                window_ns,
            } => {
                field_u64(out, "replicas", *replicas);
                field_u64(out, "window", *window);
                field_u64(out, "window_ns", *window_ns);
            }
            TraceEvent::ReplicaStraggle {
                factor,
                window,
                window_ns,
            } => {
                field_f64(out, "factor", *factor);
                field_u64(out, "window", *window);
                field_u64(out, "window_ns", *window_ns);
            }
            TraceEvent::RegionAssign {
                region,
                cloud_pool,
                wan,
            } => {
                field_u64(out, "region", u64::from(*region));
                field_u64(out, "cloud_pool", u64::from(*cloud_pool));
                field_bool(out, "wan", *wan);
            }
            TraceEvent::WanHop {
                from_region,
                to_region,
                delay_ns,
            } => {
                field_u64(out, "from_region", u64::from(*from_region));
                field_u64(out, "to_region", u64::from(*to_region));
                field_u64(out, "delay_ns", *delay_ns);
            }
        }
    }
}

/// A timestamped, sequenced trace event — one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Virtual time of the emission (nanoseconds since the epoch).
    pub t_ns: u64,
    /// Monotone per-tracer emission counter (total order within a
    /// run, including events sharing a timestamp).
    pub seq: u64,
    /// The causal span open at emission time ([`SpanId::NONE`] when
    /// the event fired outside any control cycle).
    pub span: SpanId,
    /// Fleet vehicle (tenant) the emitting component belongs to;
    /// `0` — the `VehicleId::NONE` sentinel — for single-vehicle runs
    /// and fleet-level events. Encoded on the wire only when non-zero,
    /// so pre-fleet traces stay byte-identical.
    pub vehicle: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Encode as one deterministic JSON object (no trailing newline).
    ///
    /// ```
    /// use lgv_trace::{SpanId, TraceEvent, TraceRecord};
    ///
    /// let rec = TraceRecord {
    ///     t_ns: 200_000_000,
    ///     seq: 3,
    ///     span: SpanId(1),
    ///     vehicle: 0,
    ///     event: TraceEvent::RttSample { rtt_ns: 24_000_000 },
    /// };
    /// assert_eq!(
    ///     rec.to_json(),
    ///     r#"{"t_ns":200000000,"seq":3,"span":1,"kind":"rtt_sample","rtt_ns":24000000}"#
    /// );
    ///
    /// // Fleet runs stamp the tenant into the envelope.
    /// let tagged = TraceRecord { vehicle: 2, ..rec };
    /// assert_eq!(
    ///     tagged.to_json(),
    ///     r#"{"t_ns":200000000,"seq":3,"span":1,"vehicle":2,"kind":"rtt_sample","rtt_ns":24000000}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        let _ = write!(
            out,
            "\"t_ns\":{},\"seq\":{},\"span\":{}",
            self.t_ns, self.seq, self.span.0
        );
        if self.vehicle != 0 {
            field_u64(&mut out, "vehicle", self.vehicle);
        }
        field_str(&mut out, "kind", self.event.kind());
        self.event.write_fields(&mut out);
        out.push('}');
        out
    }
}

fn field_u64(out: &mut String, name: &str, v: u64) {
    let _ = write!(out, ",\"{name}\":{v}");
}

fn field_bool(out: &mut String, name: &str, v: bool) {
    let _ = write!(out, ",\"{name}\":{v}");
}

/// Floats print via `{:?}` (shortest round-trip form, deterministic);
/// non-finite values — impossible in healthy traces — encode as
/// `null`, keeping every line valid JSON.
fn field_f64(out: &mut String, name: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(out, ",\"{name}\":{v:?}");
    } else {
        let _ = write!(out, ",\"{name}\":null");
    }
}

fn field_str(out: &mut String, name: &str, v: &str) {
    let _ = write!(out, ",\"{name}\":\"");
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_categories_are_consistent() {
        let events = [
            TraceEvent::MissionStart {
                workload: "Navigation".into(),
                deployment: "edge-8t".into(),
                seed: 42,
            },
            TraceEvent::SpanBegin {
                span: SpanId(1),
                name: "cycle".into(),
                index: 0,
            },
            TraceEvent::SpanEnd { span: SpanId(1) },
            TraceEvent::BusPublish {
                topic: "scan".into(),
                bytes: 10,
                fanout: 2,
                msg: MsgId(1),
                parent: MsgId::NONE,
            },
            TraceEvent::ChannelSend {
                dir: "up".into(),
                seq: 0,
                bytes: 4,
                outcome: SendKind::Transmitted,
                msg: MsgId(1),
            },
            TraceEvent::ChannelDeliver {
                dir: "up".into(),
                seq: 0,
                msg: MsgId(1),
                latency_ns: 5,
            },
            TraceEvent::RttSample { rtt_ns: 1 },
            TraceEvent::ProfileSample {
                node: "Slam".into(),
                remote: true,
                nanos: 7,
                msg: MsgId(1),
            },
            TraceEvent::ControlDecision {
                local_vdp_ns: 1,
                cloud_vdp_ns: 2,
                bandwidth: 5.0,
                direction: 0.1,
                vdp_remote: true,
                max_linear: 0.6,
                net_decision: "keep".into(),
            },
            TraceEvent::PolicyDecide {
                policy: "algorithm1".into(),
                remote: "costmap_gen+path_tracking".into(),
                expected_vdp_ns: 60_000_000,
                max_velocity: 0.6,
            },
            TraceEvent::GovernorDecision {
                mean_gap: 0.2,
                threads: 8,
            },
            TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 0.5,
            },
            TraceEvent::MigrationAbort,
            TraceEvent::CloudBatch {
                stage: "slam".into(),
                occupancy: 3,
                window: 12,
                marginal_ns: 600_000,
            },
            TraceEvent::CloudScale {
                from_replicas: 1,
                to_replicas: 2,
                utilization: 0.9,
                window: 13,
            },
            TraceEvent::Checkpoint {
                bytes: 5184,
                elapsed_ns: 40_000_000,
            },
            TraceEvent::DegradeEnter {
                cause: "blackout".into(),
                slam_particles: 4,
                dwa_samples: 100,
            },
            TraceEvent::DegradeExit {
                held_ns: 6_000_000_000,
                missed_cycles: 0,
            },
            TraceEvent::ReplicaCrash {
                replicas: 1,
                window: 0,
                window_ns: 4_000_000_000,
            },
            TraceEvent::ReplicaStraggle {
                factor: 2.5,
                window: 1,
                window_ns: 3_000_000_000,
            },
            TraceEvent::RegionAssign {
                region: 3,
                cloud_pool: 1,
                wan: true,
            },
            TraceEvent::WanHop {
                from_region: 3,
                to_region: 1,
                delay_ns: 10_000_000,
            },
        ];
        for e in &events {
            assert!(!e.kind().is_empty());
            assert!(EventCategory::ALL.contains(&e.category()));
        }
    }

    #[test]
    fn json_escapes_strings() {
        let rec = TraceRecord {
            t_ns: 0,
            seq: 0,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::MissionEnd {
                completed: false,
                reason: "a \"quoted\"\nline\\end".into(),
            },
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_ns":0,"seq":0,"span":0,"kind":"mission_end","completed":false,"reason":"a \"quoted\"\nline\\end"}"#
        );
    }

    #[test]
    fn json_floats_roundtrip_and_nonfinite_is_null() {
        let rec = TraceRecord {
            t_ns: 1,
            seq: 2,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: 0.1,
            },
        };
        assert!(rec.to_json().contains("\"joules\":0.1"));
        let bad = TraceRecord {
            t_ns: 1,
            seq: 3,
            span: SpanId::NONE,
            vehicle: 0,
            event: TraceEvent::EnergyDelta {
                component: "motor".into(),
                joules: f64::NAN,
            },
        };
        assert!(bad.to_json().contains("\"joules\":null"));
    }

    fn record(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            t_ns: 0,
            seq: 0,
            span: SpanId::NONE,
            vehicle: 0,
            event,
        }
    }

    #[test]
    fn send_kind_names_are_distinct() {
        let names = [
            SendKind::Transmitted.as_str(),
            SendKind::Held.as_str(),
            SendKind::Discarded.as_str(),
        ];
        assert_eq!(names, ["transmitted", "held", "discarded"]);
    }

    #[test]
    fn category_names_are_unique_lowercase_words() {
        let names: Vec<&str> = EventCategory::ALL.iter().map(|c| c.as_str()).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(n.chars().all(|c| c.is_ascii_lowercase()), "{n}");
            assert!(!names[..i].contains(n), "duplicate category {n}");
        }
    }

    #[test]
    fn json_escapes_control_characters() {
        let rec = record(TraceEvent::MissionEnd {
            completed: true,
            reason: "tab\tcr\rbell\u{7}é".into(),
        });
        assert!(
            rec.to_json()
                .ends_with(r#""completed":true,"reason":"tab\tcr\rbell\u0007é"}"#),
            "{}",
            rec.to_json()
        );
    }

    #[test]
    fn json_infinite_floats_are_null() {
        for joules in [f64::INFINITY, f64::NEG_INFINITY] {
            let rec = record(TraceEvent::EnergyDelta {
                component: "cpu".into(),
                joules,
            });
            assert!(rec.to_json().ends_with(r#""joules":null}"#));
        }
    }

    #[test]
    fn vehicle_field_sits_between_the_envelope_and_the_kind() {
        let solo = record(TraceEvent::RttSample { rtt_ns: 5 });
        assert!(!solo.to_json().contains("vehicle"));
        let tagged = TraceRecord {
            vehicle: 17,
            ..solo
        };
        assert_eq!(
            tagged.to_json(),
            r#"{"t_ns":0,"seq":0,"span":0,"vehicle":17,"kind":"rtt_sample","rtt_ns":5}"#
        );
    }

    #[test]
    fn unit_variant_encodes_without_fields() {
        let rec = TraceRecord {
            t_ns: 9,
            seq: 1,
            span: SpanId(2),
            vehicle: 0,
            event: TraceEvent::MigrationAbort,
        };
        assert_eq!(
            rec.to_json(),
            r#"{"t_ns":9,"seq":1,"span":2,"kind":"migration_abort"}"#
        );
    }
}
