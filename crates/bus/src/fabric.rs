//! A hierarchical multi-bus fabric: cluster buses behind store-and-forward
//! bridges onto a backbone memory bus, with an independent arbitration
//! point — policy **and** optional CBA/H-CBA eligibility filter — at every
//! segment.
//!
//! # Topology
//!
//! ```text
//!  cores 0..m ──► cluster bus 0 ──► bridge 0 ─┐
//!  cores m..2m ─► cluster bus 1 ──► bridge 1 ─┼─► backbone bus ─► memory
//!  ...                                        │
//!  cores ..n ──► cluster bus k-1 ► bridge k-1 ┘
//! ```
//!
//! The paper defines its credit-based arbitration per arbitration point
//! ("only those whose core has MaxL budget can be arbitrated; then, any
//! arbitration policy can be applied"), so a clustered platform simply
//! instantiates the mechanism once per segment: each cluster bus arbitrates
//! its local cores, and the backbone arbitrates the *bridges* — one per
//! cluster — which makes per-cluster bandwidth weights a first-class
//! configuration (H-CBA across clusters, CBA within them).
//!
//! # Transaction lifecycle
//!
//! A request posted by global core `c` (cluster `c / m`, local index
//! `c % m`):
//!
//! 1. wins arbitration on its **cluster bus** and holds it for the request
//!    duration (the transfer to the bridge);
//! 2. is **stored and forwarded** by the bridge: after `bridge_latency`
//!    cycles it is eligible to enter backbone arbitration. Each bridge
//!    keeps a bounded request queue (`bridge_depth`); a cluster bus is
//!    *gated* (no new grants) while a completing transfer would overflow
//!    the queue — backpressure, not loss;
//! 3. wins arbitration on the **backbone** (the bridge competes as one
//!    requester) and holds it for the duration (the memory access);
//! 4. crosses the bridge back (`bridge_latency` again, bounded response
//!    queue reserved before the backbone post) and completes at the core.
//!
//! Every phase is deterministic, so the fabric composes with the
//! event-horizon engine: its [`BusModel::next_event`] is the minimum over
//! the segment horizons and the bridge store-and-forward wakeups, and it
//! declines (`None`) whenever any segment declines — falling back to the
//! per-cycle loop, which stays bit-identical.
//!
//! The fabric also joins the events engine's limit-cycle fast-forward (see
//! [`BusModel::limit_cycle_state`]):
//! its state is every cluster bus's and then the backbone's own state,
//! followed by each bridge's queues and outstanding request (ready times
//! as offsets from the sampled cycle) and the in-flight flags, so a
//! saturated or periodic clustered run that returns to an earlier state
//! skips whole periods at once. It accepts only when its own trace and
//! every segment accept: a recording trace, a flip probe or a randomized
//! or time-slotted policy on any segment keeps the run on the plain
//! event-horizon path.
//!
//! # Worked example: a 2 × 4-core fabric
//!
//! Two clusters of four cores each, round-robin everywhere, 2-cycle
//! bridges. Core 5 (cluster 1, local core 1) issues one 6-cycle
//! transaction; it crosses cluster bus → bridge → backbone → bridge, so
//! it completes after 6 + 2 + 6 + 2 = 16 cycles:
//!
//! ```
//! use cba_bus::fabric::{Fabric, FabricConfig};
//! use cba_bus::{BusModel, BusRequest, PolicyKind, RequestKind, RequestPort};
//! use sim_core::{CoreId, Cycle};
//!
//! let config = FabricConfig::new(2, 4, 56, 2, 2)?;
//! let cluster_policies = (0..2).map(|_| PolicyKind::RoundRobin.build(4, 56)).collect();
//! let mut fabric = Fabric::new(config, cluster_policies,
//!                              PolicyKind::RoundRobin.build(2, 56))?;
//!
//! let c5 = CoreId::from_index(5);
//! fabric.post(BusRequest::new(c5, 6, RequestKind::Synthetic, 0))?;
//! let mut done: Option<(Cycle, CoreId)> = None;
//! for now in 0..100u64 {
//!     if let Some(ct) = fabric.begin_cycle(now) {
//!         done = Some((now, ct.core));
//!     }
//!     fabric.end_cycle(now);
//! }
//! assert_eq!(done, Some((16, c5)));
//! // The transaction held its cluster bus and the backbone for 6 cycles
//! // each; the fabric-wide trace attributes the backbone usage to core 5.
//! assert_eq!(fabric.cluster_bus(1).trace().busy_cycles(CoreId::from_index(1)), 6);
//! assert_eq!(fabric.trace().busy_cycles(c5), 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::bus::{Bus, BusConfig, CompletedTransaction};
use crate::policy::{ArbitrationPolicy, EligibilityFilter};
use crate::{BusError, BusRequest, RequestKind, RequestPort};
use sim_core::lfsr::LfsrBank;
use sim_core::trace::GrantTrace;
use sim_core::{BusModel, CoreId, Cycle};
use std::collections::VecDeque;

/// Static configuration of a [`Fabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    clusters: usize,
    cores_per_cluster: usize,
    max_latency: u32,
    bridge_latency: u32,
    bridge_depth: usize,
}

impl FabricConfig {
    /// Creates a configuration for `clusters` cluster buses of
    /// `cores_per_cluster` cores each, joined to the backbone by bridges
    /// with `bridge_latency`-cycle store-and-forward delay per direction
    /// and `bridge_depth`-entry request/response queues. `max_latency` is
    /// the MaxL shared by every segment.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidConfig`] if any count is zero, the total
    /// core count (or the cluster count, which indexes the backbone)
    /// exceeds [`CoreId::MAX_CORES`], or `max_latency` is out of range.
    pub fn new(
        clusters: usize,
        cores_per_cluster: usize,
        max_latency: u32,
        bridge_latency: u32,
        bridge_depth: usize,
    ) -> Result<Self, BusError> {
        if clusters == 0 || cores_per_cluster == 0 {
            return Err(BusError::InvalidConfig(
                "clusters and cores_per_cluster must be positive".into(),
            ));
        }
        let total = clusters.saturating_mul(cores_per_cluster);
        if total > CoreId::MAX_CORES {
            return Err(BusError::InvalidConfig(format!(
                "{clusters} x {cores_per_cluster} cores exceed the {}-core limit",
                CoreId::MAX_CORES
            )));
        }
        if bridge_latency == 0 {
            return Err(BusError::InvalidConfig(
                "bridge_latency must be at least 1 (store-and-forward takes a cycle)".into(),
            ));
        }
        if bridge_depth == 0 {
            return Err(BusError::InvalidConfig(
                "bridge_depth must be at least 1".into(),
            ));
        }
        // Delegates max_latency validation (and clusters <= MAX_CORES,
        // since clusters index the backbone).
        BusConfig::new(clusters, max_latency)?;
        BusConfig::new(cores_per_cluster, max_latency)?;
        Ok(FabricConfig {
            clusters,
            cores_per_cluster,
            max_latency,
            bridge_latency,
            bridge_depth,
        })
    }

    /// Number of cluster buses.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Cores on each cluster bus.
    pub(crate) fn cores_per_cluster(&self) -> usize {
        self.cores_per_cluster
    }

    /// Total core count (`clusters * cores_per_cluster`).
    pub fn n_cores(&self) -> usize {
        self.clusters * self.cores_per_cluster
    }
}

/// A transaction crossing a bridge (either direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Forwarded {
    /// The originating global core.
    core: CoreId,
    duration: u32,
    kind: RequestKind,
    /// First cycle the transaction is usable on the far side.
    ready_at: Cycle,
}

impl Forwarded {
    /// The transaction as limit-cycle state, its ready time as an offset
    /// from `now` (wrapping: entries that are already ready sit at or
    /// before `now`).
    fn limit_cycle_words(&self, now: Cycle) -> [u64; 4] {
        let (core, ready) = (self.core.index() as u64, self.ready_at.wrapping_sub(now));
        [core, self.duration as u64, self.kind as u64, ready]
    }
}

/// One store-and-forward bridge between a cluster bus and the backbone.
#[derive(Debug, Default)]
struct Bridge {
    /// Requests that fully crossed their cluster bus, oldest first
    /// (bounded by `bridge_depth` via cluster-bus gating).
    requests: VecDeque<Forwarded>,
    /// The request currently posted on / being served by the backbone
    /// (at most one per bridge; FIFO within the bridge).
    outstanding: Option<Forwarded>,
    /// Responses returning to the cluster, oldest first (bounded by
    /// `bridge_depth` via reservation before the backbone post).
    responses: VecDeque<Forwarded>,
}

impl Bridge {
    /// Appends the bridge to the fabric's limit-cycle state: the request
    /// queue (its length first, so two different queue contents never
    /// concatenate to the same words), the outstanding request (all ones
    /// for none, which no core index matches) and the response queue.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>) {
        state.push(self.requests.len() as u64);
        state.extend(self.requests.iter().flat_map(|f| f.limit_cycle_words(now)));
        state.extend(
            self.outstanding
                .map_or([u64::MAX; 4], |f| f.limit_cycle_words(now)),
        );
        state.push(self.responses.len() as u64);
        state.extend(self.responses.iter().flat_map(|f| f.limit_cycle_words(now)));
    }

    /// Moves every ready time `shift` cycles later.
    fn shift_time(&mut self, shift: Cycle) {
        let Bridge {
            requests,
            outstanding,
            responses,
        } = self;
        for f in requests.iter_mut().chain(outstanding).chain(responses) {
            f.ready_at += shift;
        }
    }
}

/// The hierarchical multi-bus fabric; see the [module docs](self) for the
/// topology, the transaction lifecycle and a worked example.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    clusters: Vec<Bus>,
    backbone: Bus,
    bridges: Vec<Bridge>,
    /// Per global core: a request is somewhere in the pipeline (posted,
    /// on a segment, crossing a bridge) and has not been delivered yet.
    in_flight: Vec<bool>,
    /// Fabric-wide trace: backbone grants attributed to the *originating*
    /// core — per-core usage of the shared memory path.
    trace: GrantTrace,
    in_cycle: bool,
    last_cycle: Option<Cycle>,
}

impl Fabric {
    /// Creates a fabric with one arbitration policy per cluster bus plus
    /// the backbone's, no eligibility filters and each segment's bus's
    /// default random-bit bank. Filters and banks are installed per
    /// segment via the `set_*` methods.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidConfig`] if `cluster_policies` does not
    /// have exactly one entry per cluster.
    pub fn new(
        config: FabricConfig,
        cluster_policies: Vec<Box<dyn ArbitrationPolicy>>,
        backbone_policy: Box<dyn ArbitrationPolicy>,
    ) -> Result<Self, BusError> {
        if cluster_policies.len() != config.clusters {
            return Err(BusError::InvalidConfig(format!(
                "{} cluster policies for {} clusters",
                cluster_policies.len(),
                config.clusters
            )));
        }
        let cluster_cfg = BusConfig::new(config.cores_per_cluster, config.max_latency)?;
        let backbone_cfg = BusConfig::new(config.clusters, config.max_latency)?;
        Ok(Fabric {
            clusters: cluster_policies
                .into_iter()
                .map(|p| Bus::new(cluster_cfg, p))
                .collect(),
            backbone: Bus::new(backbone_cfg, backbone_policy),
            bridges: (0..config.clusters).map(|_| Bridge::default()).collect(),
            in_flight: vec![false; config.n_cores()],
            trace: GrantTrace::counting(config.n_cores()),
            in_cycle: false,
            last_cycle: None,
            config,
        })
    }

    /// The static configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Replaces cluster `k`'s eligibility filter (sized for
    /// `cores_per_cluster` local cores).
    pub fn set_cluster_filter(&mut self, k: usize, filter: Box<dyn EligibilityFilter>) {
        self.clusters[k].set_filter(filter);
    }

    /// Replaces the backbone's eligibility filter (sized for `clusters`
    /// contenders — one per bridge).
    pub fn set_backbone_filter(&mut self, filter: Box<dyn EligibilityFilter>) {
        self.backbone.set_filter(filter);
    }

    /// Replaces cluster `k`'s random-bit bank.
    pub fn set_cluster_random_source(&mut self, k: usize, rng: LfsrBank) {
        self.clusters[k].set_random_source(rng);
    }

    /// Replaces the backbone's random-bit bank.
    pub fn set_backbone_random_source(&mut self, rng: LfsrBank) {
        self.backbone.set_random_source(rng);
    }

    /// Switches the fabric-wide trace to full recording (stores every
    /// backbone grant with its originating core).
    pub fn enable_recording_trace(&mut self) {
        self.trace = GrantTrace::recording(self.config.n_cores());
    }

    /// Cluster bus `k` (local traces, occupancy).
    pub fn cluster_bus(&self, k: usize) -> &Bus {
        &self.clusters[k]
    }

    /// The backbone bus (per-bridge traces and statistics).
    pub fn backbone(&self) -> &Bus {
        &self.backbone
    }

    /// The cluster index of a global core.
    fn cluster_of(&self, core: CoreId) -> usize {
        core.index() / self.config.cores_per_cluster
    }

    /// The local (cluster-bus) id of a global core.
    fn local_id(&self, core: CoreId) -> CoreId {
        CoreId::from_index(core.index() % self.config.cores_per_cluster)
    }

    /// Whether `core` has a transaction anywhere in the pipeline.
    fn is_in_flight(&self, core: CoreId) -> bool {
        self.in_flight.get(core.index()).copied().unwrap_or(false)
    }

    /// Backbone cycles carrying no transaction (among those ticked).
    pub fn idle_cycles(&self) -> u64 {
        self.backbone.idle_cycles()
    }

    /// Total cycles ticked.
    pub fn total_cycles(&self) -> u64 {
        self.backbone.total_cycles()
    }

    /// Starts watching every cluster bus's eligibility filter for
    /// verdict flips (see [`Bus::enable_flip_probe`]); flips stream
    /// through [`BusModel::drain_events`] with cluster-local cores
    /// remapped to their global identities. Backbone (per-bridge) flips
    /// are not forwarded — bridge indices are not core identities.
    pub fn enable_flip_probe(&mut self) {
        for bus in &mut self.clusters {
            bus.enable_flip_probe();
        }
    }
}

/// The fabric speaks the workspace-wide cycle protocol: requests carry
/// global [`CoreId`]s, completions are [`CompletedTransaction`]s, so a
/// fabric drops into any harness written for [`Bus`].
impl BusModel for Fabric {
    type Completion = CompletedTransaction;

    /// Phase 1 of cycle `now`: delivers a response that finished crossing
    /// its bridge, lands cluster-bus completions in their bridge request
    /// queues, and turns backbone completions into returning responses.
    ///
    /// At most one completion is reported per cycle; this is lossless
    /// because responses originate from backbone completions (at most one
    /// per cycle) and all bridges share one crossing latency, so no two
    /// responses become ready on the same cycle.
    ///
    /// # Panics
    ///
    /// Panics if cycles are not visited in strictly increasing order or
    /// the phases are called out of order.
    fn begin_cycle(&mut self, now: Cycle) -> Option<CompletedTransaction> {
        assert!(!self.in_cycle, "begin_cycle called twice for one cycle");
        if let Some(last) = self.last_cycle {
            assert!(
                now > last,
                "cycles must strictly increase ({last} -> {now})"
            );
        }
        self.in_cycle = true;
        self.last_cycle = Some(now);

        // 1. Deliver the oldest ready response fabric-wide.
        let mut best: Option<(Cycle, usize)> = None;
        for (k, bridge) in self.bridges.iter().enumerate() {
            if let Some(front) = bridge.responses.front() {
                let older = match best {
                    None => true,
                    Some((t, _)) => front.ready_at < t,
                };
                if front.ready_at <= now && older {
                    best = Some((front.ready_at, k));
                }
            }
        }
        let completion = best.map(|(_, k)| {
            let f = self.bridges[k]
                .responses
                .pop_front()
                .expect("front checked above");
            self.in_flight[f.core.index()] = false;
            CompletedTransaction {
                core: f.core,
                kind: f.kind,
                duration: f.duration,
            }
        });

        // 2. Cluster transfers finishing at `now` enter their bridge's
        //    request queue after the store-and-forward delay. The queue
        //    has room by the gating invariant of `end_cycle`.
        for (k, bus) in self.clusters.iter_mut().enumerate() {
            if let Some(done) = bus.begin_cycle(now) {
                let global =
                    CoreId::from_index(k * self.config.cores_per_cluster + done.core.index());
                self.bridges[k].requests.push_back(Forwarded {
                    core: global,
                    duration: done.duration,
                    kind: done.kind,
                    ready_at: now + self.config.bridge_latency as Cycle,
                });
                debug_assert!(self.bridges[k].requests.len() <= self.config.bridge_depth);
            }
        }

        // 3. A backbone transfer finishing at `now` heads back across its
        //    bridge as a response (slot reserved before the post).
        if let Some(done) = self.backbone.begin_cycle(now) {
            let k = done.core.index();
            let f = self.bridges[k]
                .outstanding
                .take()
                .expect("backbone completion without an outstanding bridge request");
            self.bridges[k].responses.push_back(Forwarded {
                ready_at: now + self.config.bridge_latency as Cycle,
                ..f
            });
            debug_assert!(self.bridges[k].responses.len() <= self.config.bridge_depth);
        }
        completion
    }

    /// Phase 3 of cycle `now`: bridges with a crossed request (and a free
    /// response slot) enter backbone arbitration, the backbone arbitrates,
    /// then every cluster bus arbitrates under request-queue backpressure.
    /// Returns the *originating core* of a freshly granted backbone
    /// transfer, if any.
    ///
    /// # Panics
    ///
    /// Panics if called without a matching `begin_cycle`.
    fn end_cycle(&mut self, now: Cycle) -> Option<CoreId> {
        assert!(self.in_cycle, "end_cycle without begin_cycle");
        assert_eq!(
            self.last_cycle,
            Some(now),
            "end_cycle for a different cycle"
        );
        self.in_cycle = false;

        // 1. Bridge heads that finished crossing compete on the backbone:
        //    one outstanding request per bridge, response slot reserved so
        //    the way back is never blocked.
        for (k, bridge) in self.bridges.iter_mut().enumerate() {
            if bridge.outstanding.is_some() {
                continue;
            }
            let ready = bridge.requests.front().is_some_and(|f| f.ready_at <= now);
            if ready && bridge.responses.len() < self.config.bridge_depth {
                let f = bridge.requests.pop_front().expect("front checked above");
                self.backbone
                    .post(BusRequest::new(
                        CoreId::from_index(k),
                        f.duration,
                        f.kind,
                        now,
                    ))
                    .expect("one outstanding request per bridge");
                bridge.outstanding = Some(f);
            }
        }

        // 2. Backbone arbitration; the fabric-wide trace attributes the
        //    grant to the originating core.
        let granted = self.backbone.end_cycle(now).map(|bridge| {
            let f = self.bridges[bridge.index()]
                .outstanding
                .expect("granted bridge has an outstanding request");
            self.trace.record(now, f.core, f.duration);
            f.core
        });

        // 3. Cluster arbitration under backpressure: a grant adds one
        //    in-flight transfer destined for the request queue, so it is
        //    allowed only while queue + transfer stay within depth.
        for (k, bus) in self.clusters.iter_mut().enumerate() {
            let occupied = self.bridges[k].requests.len() + usize::from(bus.owner().is_some());
            bus.end_cycle_gated(now, occupied < self.config.bridge_depth);
        }
        granted
    }

    /// The fabric-wide trace: backbone grants per originating core.
    fn trace(&self) -> &GrantTrace {
        &self.trace
    }

    /// The fabric's event horizon (see [`BusModel::next_event`]): the
    /// minimum over every segment's horizon and the bridge
    /// store-and-forward wakeups (a request finishing its crossing, a
    /// response becoming deliverable). Declines (`None`) whenever any
    /// segment declines.
    fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        let mut horizon = Cycle::MAX;
        for bridge in &self.bridges {
            if bridge.outstanding.is_none() {
                if let Some(front) = bridge.requests.front() {
                    // Next posting attempt: when the crossing ends, or next
                    // cycle if it already has (blocked on response space —
                    // re-checked every cycle, conservatively).
                    horizon = horizon.min(front.ready_at.max(now + 1));
                }
            }
            if let Some(front) = bridge.responses.front() {
                horizon = horizon.min(front.ready_at.max(now + 1));
            }
        }
        for bus in &mut self.clusters {
            horizon = horizon.min(bus.next_event(now)?);
        }
        horizon = horizon.min(self.backbone.next_event(now)?);
        Some(horizon)
    }

    /// Bulk-advances every segment over the uneventful range (see
    /// [`BusModel::advance`]); bridge state
    /// is expressed in absolute cycles and needs no per-cycle work.
    fn advance(&mut self, from: Cycle, to: Cycle) {
        debug_assert!(!self.in_cycle, "advance between cycles only");
        if to <= from + 1 {
            return;
        }
        for bus in &mut self.clusters {
            bus.advance(from, to);
        }
        self.backbone.advance(from, to);
        self.last_cycle = Some(to - 1);
    }

    fn drain_events(&mut self, sink: &mut dyn FnMut(sim_core::ModelEvent)) {
        let cores_per_cluster = self.config.cores_per_cluster();
        for (k, bus) in self.clusters.iter_mut().enumerate() {
            BusModel::drain_events(bus, &mut |event| match event {
                sim_core::ModelEvent::CreditFlip { at, core, eligible } => {
                    sink(sim_core::ModelEvent::CreditFlip {
                        at,
                        core: CoreId::from_index(k * cores_per_cluster + core.index()),
                        eligible,
                    })
                }
                #[allow(unreachable_patterns)]
                other => sink(other),
            });
        }
    }

    /// The fabric accepts the limit-cycle fast-forward when its trace only
    /// counts and every segment accepts. State: each cluster bus's, then
    /// the backbone's, then every bridge's (see `Bridge`), then the
    /// in-flight flags. Counters: the fabric-wide trace's, then each
    /// segment's in the same order.
    fn limit_cycle_state(&self, now: Cycle, state: &mut Vec<u64>, counters: &mut Vec<u64>) -> bool {
        let mut accepted = self.trace.limit_cycle_counters(counters);
        for bus in self.clusters.iter().chain([&self.backbone]) {
            accepted &= BusModel::limit_cycle_state(bus, now, state, counters);
        }
        for bridge in &self.bridges {
            bridge.limit_cycle_state(now, state);
        }
        state.extend(self.in_flight.iter().map(|&f| u64::from(f)));
        accepted
    }

    fn limit_cycle_jump(&mut self, periods: u64, shift: Cycle, deltas: &[u64]) {
        let mut rest = self.trace.limit_cycle_jump(periods, shift, deltas);
        for bus in self.clusters.iter_mut().chain([&mut self.backbone]) {
            rest = bus.limit_cycle_jump(periods, shift, rest);
        }
        debug_assert!(rest.is_empty(), "every counter delta has its segment");
        for bridge in &mut self.bridges {
            bridge.shift_time(shift);
        }
        self.last_cycle = self.last_cycle.map(|t| t + shift);
    }
}

impl RequestPort for Fabric {
    /// Posts a request by a global core (phase 2 of the cycle protocol).
    ///
    /// # Errors
    ///
    /// * [`BusError::UnknownCore`] — core outside the fabric;
    /// * [`BusError::DurationOutOfRange`] — duration 0 or above MaxL (its
    ///   cluster bus checks);
    /// * [`BusError::AlreadyPending`] — the core already has a transaction
    ///   in flight (anywhere in the pipeline).
    fn post(&mut self, req: BusRequest) -> Result<(), BusError> {
        let idx = req.core().index();
        if idx >= self.config.n_cores() {
            return Err(BusError::UnknownCore(req.core()));
        }
        if self.in_flight[idx] {
            return Err(BusError::AlreadyPending(req.core()));
        }
        let k = self.cluster_of(req.core());
        let local = self.local_id(req.core());
        self.clusters[k].post(BusRequest::new(
            local,
            req.duration(),
            req.kind(),
            req.issued_at(),
        ))?;
        self.in_flight[idx] = true;
        Ok(())
    }

    fn can_accept(&self, core: CoreId) -> bool {
        core.index() < self.config.n_cores() && !self.is_in_flight(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use sim_core::agent::FnAgent;
    use sim_core::Control;
    use sim_core::{Engine, Simulation};

    fn c(i: usize) -> CoreId {
        CoreId::from_index(i)
    }

    fn req(core: usize, dur: u32, at: Cycle) -> BusRequest {
        BusRequest::new(c(core), dur, RequestKind::Synthetic, at)
    }

    /// One cycle with no posts between its phases; returns the completion.
    fn step(fabric: &mut Fabric, now: Cycle) -> Option<CompletedTransaction> {
        let completed = fabric.begin_cycle(now);
        fabric.end_cycle(now);
        completed
    }

    fn rr_fabric(clusters: usize, cpc: usize, latency: u32, depth: usize) -> Fabric {
        let config = FabricConfig::new(clusters, cpc, 56, latency, depth).unwrap();
        let policies = (0..clusters)
            .map(|_| PolicyKind::RoundRobin.build(cpc, 56))
            .collect();
        Fabric::new(config, policies, PolicyKind::RoundRobin.build(clusters, 56)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(FabricConfig::new(0, 4, 56, 2, 2).is_err());
        assert!(FabricConfig::new(4, 0, 56, 2, 2).is_err());
        assert!(FabricConfig::new(8, 16, 56, 2, 2).is_err(), "128 cores");
        assert!(FabricConfig::new(2, 4, 0, 2, 2).is_err());
        assert!(FabricConfig::new(2, 4, 56, 0, 2).is_err());
        assert!(FabricConfig::new(2, 4, 56, 2, 0).is_err());
        let ok = FabricConfig::new(4, 4, 56, 3, 2).unwrap();
        assert_eq!(ok.n_cores(), 16);
        assert_eq!(ok.bridge_latency, 3);
    }

    #[test]
    fn policy_count_must_match() {
        let config = FabricConfig::new(2, 2, 56, 1, 1).unwrap();
        let policies = vec![PolicyKind::RoundRobin.build(2, 56)];
        assert!(Fabric::new(config, policies, PolicyKind::RoundRobin.build(2, 56)).is_err());
    }

    #[test]
    fn single_transaction_crosses_the_whole_fabric() {
        let mut fabric = rr_fabric(2, 2, 3, 2);
        fabric.post(req(3, 10, 0)).unwrap(); // cluster 1, local core 1
        let mut done = None;
        for now in 0..200u64 {
            if let Some(ct) = fabric.begin_cycle(now) {
                done = Some((now, ct));
            }
            fabric.end_cycle(now);
        }
        // 10 (cluster) + 3 (bridge) + 10 (backbone) + 3 (bridge) = 26.
        let (at, ct) = done.expect("completes");
        assert_eq!(at, 26);
        assert_eq!(ct.core, c(3));
        assert_eq!(ct.duration, 10);
        assert_eq!(fabric.trace().slots(c(3)), 1);
        assert_eq!(fabric.trace().busy_cycles(c(3)), 10);
        assert_eq!(fabric.cluster_bus(1).trace().busy_cycles(c(1)), 10);
        assert_eq!(fabric.backbone().trace().busy_cycles(c(1)), 10);
        assert!(!fabric.is_in_flight(c(3)));
    }

    #[test]
    fn post_validation_and_in_flight_gating() {
        let mut fabric = rr_fabric(2, 2, 1, 1);
        assert!(matches!(
            fabric.post(req(4, 5, 0)),
            Err(BusError::UnknownCore(_))
        ));
        assert!(matches!(
            fabric.post(req(0, 57, 0)),
            Err(BusError::DurationOutOfRange { .. })
        ));
        fabric.post(req(0, 5, 0)).unwrap();
        assert!(matches!(
            fabric.post(req(0, 5, 0)),
            Err(BusError::AlreadyPending(_))
        ));
        assert!(!fabric.can_accept(c(0)));
        assert!(fabric.can_accept(c(1)));
        // In flight until delivery, even while crossing bridges.
        let done_at = 5 + 1 + 5 + 1;
        for now in 0..done_at {
            step(&mut fabric, now);
            assert!(fabric.is_in_flight(c(0)), "cycle {now}");
            assert!(matches!(
                fabric.post(req(0, 5, now)),
                Err(BusError::AlreadyPending(_))
            ));
        }
        let done = step(&mut fabric, done_at);
        assert_eq!(done.map(|ct| ct.core), Some(c(0)));
        assert!(fabric.can_accept(c(0)));
    }

    #[test]
    fn bounded_request_queue_backpressures_the_cluster_bus() {
        // Depth 1, long backbone occupancy from cluster 1 keeps cluster
        // 0's bridge queue full; its bus must stop granting until the
        // queue drains.
        let mut fabric = rr_fabric(2, 2, 1, 1);
        let horizon = 2_000u64;
        for now in 0..horizon {
            fabric.begin_cycle(now);
            for core in 0..4 {
                if fabric.can_accept(c(core)) {
                    fabric.post(req(core, 56, now)).unwrap();
                }
            }
            fabric.end_cycle(now);
        }
        for k in 0..2 {
            assert!(
                fabric.bridges[k].requests.len() <= 1,
                "queue bounded by depth"
            );
        }
        // Both clusters keep making progress despite the backpressure.
        assert!(fabric.trace().slots(c(0)) + fabric.trace().slots(c(1)) > 5);
        assert!(fabric.trace().slots(c(2)) + fabric.trace().slots(c(3)) > 5);
        // The backbone carried roughly the whole horizon.
        assert!(fabric.idle_cycles() < horizon / 4);
    }

    /// A filter that permanently vetoes one contender (to test per-segment
    /// filter composition; the real credit filters are exercised by the
    /// workspace-level fabric tests, which can depend on the `cba` crate).
    #[derive(Debug)]
    struct Veto(CoreId);

    impl EligibilityFilter for Veto {
        fn name(&self) -> &'static str {
            "veto"
        }
        fn eligible(&self, cores: u64, _now: Cycle) -> u64 {
            cores & !self.0.bit()
        }
    }

    #[test]
    fn segment_filters_apply_independently() {
        // Backbone filter vetoes bridge 1: cluster 1's cores keep winning
        // their own bus but never reach memory; cluster 0 is unaffected.
        // A cluster-0 filter vetoing local core 1 (global core 1) starves
        // exactly that core.
        let mut fabric = rr_fabric(2, 2, 1, 1);
        fabric.set_backbone_filter(Box::new(Veto(c(1)))); // bridge 1
        fabric.set_cluster_filter(0, Box::new(Veto(c(1)))); // local core 1
        for now in 0..3_000u64 {
            fabric.begin_cycle(now);
            for core in 0..4 {
                if fabric.can_accept(c(core)) {
                    fabric.post(req(core, 28, now)).unwrap();
                }
            }
            fabric.end_cycle(now);
        }
        assert!(fabric.trace().slots(c(0)) > 10, "cluster 0 flows");
        assert_eq!(fabric.trace().slots(c(1)), 0, "vetoed on its cluster");
        assert_eq!(
            fabric.trace().slots(c(2)) + fabric.trace().slots(c(3)),
            0,
            "bridge 1 vetoed on the backbone"
        );
        // Cluster 1's bus still granted locally (its bridge queue filled).
        assert!(fabric.cluster_bus(1).trace().total_slots() >= 1);
    }

    #[test]
    fn next_event_matches_the_pipeline_stages() {
        let mut fabric = rr_fabric(2, 2, 3, 2);
        fabric.post(req(0, 10, 0)).unwrap();
        step(&mut fabric, 0); // cluster grant: busy [0, 10)
        assert_eq!(fabric.next_event(0), Some(10));
        for now in 1..=10u64 {
            step(&mut fabric, now);
        }
        // Crossing the bridge: ready at 10 + 3 = 13.
        assert_eq!(fabric.next_event(10), Some(13));
        for now in 11..=13u64 {
            step(&mut fabric, now);
        }
        // Backbone granted at 13: busy [13, 23).
        assert_eq!(fabric.next_event(13), Some(23));
        for now in 14..=23u64 {
            step(&mut fabric, now);
        }
        // Response crossing: deliverable at 23 + 3 = 26.
        assert_eq!(fabric.next_event(23), Some(26));
        let mut done = None;
        for now in 24..=26u64 {
            if let Some(ct) = fabric.begin_cycle(now) {
                done = Some(now);
                assert_eq!(ct.core, c(0));
            }
            fabric.end_cycle(now);
        }
        assert_eq!(done, Some(26));
        // Idle and empty: no fabric-side event at all.
        assert_eq!(fabric.next_event(26), Some(Cycle::MAX));
    }

    /// A deterministic mixed workload closure shared by the naive/fast
    /// equivalence test: staggered periodic posters of mixed durations,
    /// sleeping until the next issue boundary so the fast path really
    /// skips.
    fn mixed_traffic() -> impl FnMut(&mut Fabric, Cycle, Option<&CompletedTransaction>) -> Control {
        move |fabric, now, _completed| {
            let n = fabric.config().n_cores();
            let mut until = Cycle::MAX;
            for core in 0..n {
                let period = 40 + 13 * core as u64;
                let offset = (7 * core as u64) % period;
                if now % period == offset && fabric.can_accept(c(core)) {
                    let dur = [5u32, 28, 56][core % 3];
                    fabric.post(req(core, dur, now)).unwrap();
                }
                // The next issue boundary of this core after `now`.
                let next = now + period - (now + period - offset) % period;
                until = until.min(next);
            }
            Control::Sleep(until)
        }
    }

    #[test]
    fn events_engine_matches_naive_bit_for_bit() {
        let run = |engine: Engine| -> (Vec<u64>, Vec<u64>, u64, u64) {
            let sim = Simulation::builder()
                .model(rr_fabric(2, 3, 2, 2))
                .agent(FnAgent(mixed_traffic()))
                .engine(engine)
                .max_cycles(20_000)
                .run();
            assert_eq!(sim.outcome().cycles, 20_000);
            let fabric = sim.model();
            let slots = (0..6).map(|i| fabric.trace().slots(c(i))).collect();
            let busy = (0..6).map(|i| fabric.trace().busy_cycles(c(i))).collect();
            (slots, busy, fabric.idle_cycles(), fabric.total_cycles())
        };
        assert_eq!(run(Engine::Naive), run(Engine::Events));
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotonic_cycles_panic() {
        let mut fabric = rr_fabric(1, 1, 1, 1);
        step(&mut fabric, 5);
        step(&mut fabric, 5);
    }
}
