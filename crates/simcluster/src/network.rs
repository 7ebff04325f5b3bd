//! Pluggable network models for the unified event core.
//!
//! Every byte the simulator moves — DFS reads and pipeline writes,
//! shuffle fetches, async message edges, checkpoint traffic — is priced
//! by one [`NetworkModel`] owned by the
//! [`EventCore`](crate::event_core::EventCore). The family mirrors
//! `dslab-network`'s model zoo:
//!
//! | model | contention | use |
//! |---|---|---|
//! | [`Constant`] | none — every transfer gets full bandwidth | uncontended baseline; the pre-refactor async path's semantics |
//! | [`NetworkState`] (NIC store-and-forward, **default**) | per-node tx/rx pipes serialize | the pre-refactor barrier path's semantics |
//! | [`TopologyAware`] | per-link capacities (node uplinks/downlinks + optional oversubscribed core), max-min fair-shared across concurrent flows, rates recomputed on flow add/remove | contention studies ([`TopologyAware::uniform`]: fair-shared NICs, all-to-all shuffles visibly stretch); CluE-style oversubscription |
//!
//! The fluid model is a max-min progressive-filling engine: at every
//! flow arrival and completion the rate allocation is recomputed so
//! that no link ever carries more than its capacity (the conservation
//! property pinned by `tests/network_models.rs`). Completion times are committed at
//! admission — a flow admitted later shares capacity with everything
//! active at that instant, but does not retroactively slow transfers
//! whose completions were already reported (the same
//! admission-commitment dslab's analytical models make per recalc
//! window). All models are pure functions of their call sequence, so a
//! simulation stays bit-reproducible from its seed under any of them.

use std::fmt;

use asyncmr_model::SimTime;

/// How the simulated cluster prices point-to-point byte movement.
///
/// Implementations are stateful: committing a transfer may occupy
/// capacity and delay later transfers. [`NetworkModel::estimate`] is
/// the pure (state-free) counterpart used to *compare* candidate
/// placements before committing one.
pub trait NetworkModel: fmt::Debug + Send {
    /// Number of nodes this model prices traffic between.
    fn nodes(&self) -> usize;

    /// Uncontended duration for `bytes` (latency + serialization at the
    /// model's base bandwidth).
    fn wire_time(&self, bytes: u64) -> SimTime;

    /// Commits a transfer of `bytes` from `src` to `dst`, starting no
    /// earlier than `earliest`; returns the completion instant.
    /// Loopback (`src == dst`) completes at `earliest` for free.
    fn transfer(&mut self, src: usize, dst: usize, bytes: u64, earliest: SimTime) -> SimTime;

    /// Clears capacity occupancy to `at` or later (between jobs, so a
    /// new job's transfers never start in the previous job's past).
    fn advance_to(&mut self, at: SimTime);

    /// Pure completion estimate for a hypothetical transfer — used to
    /// rank candidate placements without perturbing model state. The
    /// default ignores contention (loopback free, otherwise
    /// `earliest + wire_time`), which is exactly the pre-refactor async
    /// scheduler's arrival formula.
    fn estimate(&self, src: usize, dst: usize, bytes: u64, earliest: SimTime) -> SimTime {
        if src == dst {
            earliest
        } else {
            earliest + self.wire_time(bytes)
        }
    }

    /// Live per-link utilization in bytes/s, for the epoch-boundary
    /// trace snapshots ([`crate::Ev::LinkUtil`]). Link layout
    /// convention: indices `0..nodes` are the transmit/uplink side of
    /// each node, `nodes..2*nodes` the receive/downlink side; any
    /// further entries are model-specific (e.g. a shared core link).
    /// Models without a live contention notion return an empty vector
    /// (the default) and the trace records no snapshot.
    fn utilization(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Per-link capacities in bytes/s, parallel to
    /// [`NetworkModel::utilization`] (empty iff utilization is empty).
    fn capacities(&self) -> Vec<f64> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// Constant: the uncontended baseline.
// ---------------------------------------------------------------------------

/// Fixed latency + bandwidth per transfer, no interference: `n`
/// concurrent transfers all proceed at full rate (dslab's
/// constant-bandwidth model). This is also exactly how the
/// pre-refactor async replay priced message edges, which is why the
/// replay-fidelity goldens for `run_async_schedule` are pinned under
/// this model.
#[derive(Debug, Clone, PartialEq)]
pub struct Constant {
    nodes: usize,
    bandwidth: f64,
    latency: SimTime,
}

impl Constant {
    /// Creates the model for `nodes` nodes at `bandwidth` bytes/s per
    /// transfer and `latency` per transfer.
    pub fn new(nodes: usize, bandwidth: f64, latency: SimTime) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Constant { nodes, bandwidth, latency }
    }
}

impl NetworkModel for Constant {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn wire_time(&self, bytes: u64) -> SimTime {
        self.latency + SimTime::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    fn transfer(&mut self, src: usize, dst: usize, bytes: u64, earliest: SimTime) -> SimTime {
        if src == dst {
            return earliest;
        }
        earliest + self.wire_time(bytes)
    }

    fn advance_to(&mut self, _at: SimTime) {}
}

// ---------------------------------------------------------------------------
// NIC-serialized store-and-forward: the legacy default.
// ---------------------------------------------------------------------------

/// Store-and-forward with per-node NIC serialization — the simulator's
/// default model, and the one the barrier-path replay-fidelity goldens
/// are pinned under.
///
/// Each node has two serialized pipes — transmit and receive. A
/// transfer from `src` to `dst` occupies `src`'s tx pipe and `dst`'s rx
/// pipe for `latency + bytes / bandwidth`, starting no earlier than both
/// pipes are free. Transfers between co-located endpoints (`src == dst`)
/// bypass the NIC (loopback) and only pay a disk-ish copy, which the
/// caller charges separately.
///
/// This is deliberately simpler than flow-level max-min fairness (see
/// [`TopologyAware`] for that), but it preserves the property the
/// paper's argument rests on: all-to-all shuffles serialize on node
/// NICs, so a *global* synchronization costs far more than the
/// partition-local work it punctuates, and grows with the number of
/// communicating tasks.
#[derive(Debug, Clone)]
pub struct NetworkState {
    /// Bytes/second per NIC direction.
    bandwidth: f64,
    /// One-way latency charged once per transfer.
    latency: SimTime,
    /// Earliest instant each node's transmit pipe is free.
    tx_free: Vec<SimTime>,
    /// Earliest instant each node's receive pipe is free.
    rx_free: Vec<SimTime>,
}

impl NetworkState {
    /// Creates an idle network for `nodes` nodes.
    pub fn new(nodes: usize, bandwidth: f64, latency: SimTime) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        NetworkState {
            bandwidth,
            latency,
            tx_free: vec![SimTime::ZERO; nodes],
            rx_free: vec![SimTime::ZERO; nodes],
        }
    }
}

impl NetworkModel for NetworkState {
    fn nodes(&self) -> usize {
        self.tx_free.len()
    }

    fn wire_time(&self, bytes: u64) -> SimTime {
        self.latency + SimTime::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Occupies both pipes until the transfer completes; loopback
    /// (`src == dst`) completes instantly at `earliest` (no NIC
    /// involvement).
    fn transfer(&mut self, src: usize, dst: usize, bytes: u64, earliest: SimTime) -> SimTime {
        if src == dst {
            return earliest;
        }
        let start = earliest.max(self.tx_free[src]).max(self.rx_free[dst]);
        let finish = start + self.wire_time(bytes);
        self.tx_free[src] = finish;
        self.rx_free[dst] = finish;
        finish
    }

    fn advance_to(&mut self, at: SimTime) {
        for t in self.tx_free.iter_mut().chain(self.rx_free.iter_mut()) {
            *t = (*t).max(at);
        }
    }
}

// ---------------------------------------------------------------------------
// Fluid max-min engine behind TopologyAware.
// ---------------------------------------------------------------------------

/// One active fluid flow: the links it crosses and the bytes left.
#[derive(Debug, Clone)]
struct Flow {
    links: Vec<u32>,
    remaining: f64,
}

/// Residual bytes below which a flow counts as drained (guards f64
/// round-off from keeping zombie flows alive).
const DRAIN_EPS: f64 = 1e-6;

/// A set of capacitated links with max-min fair-shared fluid flows.
///
/// Rates are recomputed by progressive filling at every flow add and
/// remove, so the allocation is always feasible: on every link, the sum
/// of flow rates never exceeds capacity.
#[derive(Debug, Clone)]
struct FluidLinks {
    caps: Vec<f64>,
    /// Fluid clock, fractional seconds.
    now: f64,
    flows: Vec<Flow>,
}

impl FluidLinks {
    fn new(caps: Vec<f64>) -> Self {
        assert!(caps.iter().all(|&c| c > 0.0), "link capacities must be positive");
        FluidLinks { caps, now: 0.0, flows: Vec::new() }
    }

    /// Max-min progressive filling: repeatedly find the bottleneck link
    /// (smallest residual fair share) and freeze its flows at that
    /// rate. Deterministic: links and flows are scanned in index order.
    fn fair_rates(caps: &[f64], flows: &[Flow]) -> Vec<f64> {
        let mut rate = vec![0.0f64; flows.len()];
        let mut frozen = vec![false; flows.len()];
        let mut used = vec![0.0f64; caps.len()];
        let mut count = vec![0usize; caps.len()];
        loop {
            for c in count.iter_mut() {
                *c = 0;
            }
            for (f, fl) in flows.iter().enumerate() {
                if !frozen[f] {
                    for &l in &fl.links {
                        count[l as usize] += 1;
                    }
                }
            }
            let mut bottleneck: Option<(f64, usize)> = None;
            for (l, &cap) in caps.iter().enumerate() {
                if count[l] > 0 {
                    let fair = (cap - used[l]).max(0.0) / count[l] as f64;
                    if bottleneck.is_none_or(|(b, _)| fair < b) {
                        bottleneck = Some((fair, l));
                    }
                }
            }
            let Some((fair, link)) = bottleneck else { break };
            for (f, fl) in flows.iter().enumerate() {
                if !frozen[f] && fl.links.contains(&(link as u32)) {
                    frozen[f] = true;
                    rate[f] = fair;
                    for &l in &fl.links {
                        used[l as usize] += fair;
                    }
                }
            }
        }
        rate
    }

    /// Advances the fluid clock to `at` seconds, draining flows at
    /// their fair rates and recomputing the allocation at every flow
    /// completion (the "recompute on remove" half of the contract).
    fn advance_secs(&mut self, at: f64) {
        while self.now < at && !self.flows.is_empty() {
            let rates = Self::fair_rates(&self.caps, &self.flows);
            let mut dt = f64::INFINITY;
            for (f, fl) in self.flows.iter().enumerate() {
                if rates[f] > 0.0 {
                    dt = dt.min(fl.remaining / rates[f]);
                }
            }
            let span = at - self.now;
            let step = dt.min(span);
            for (f, fl) in self.flows.iter_mut().enumerate() {
                fl.remaining -= rates[f] * step;
            }
            self.now += step;
            self.flows.retain(|fl| fl.remaining > DRAIN_EPS);
            if dt > span {
                break;
            }
        }
        self.now = self.now.max(at);
    }

    /// Admits a flow at `start` seconds and returns the instant its
    /// bytes drain, assuming the active set only shrinks by completions
    /// (the admission commitment). The real flow set keeps the flow so
    /// later admissions share with it (the "recompute on add" half).
    fn admit(&mut self, links: Vec<u32>, bytes: f64, start: f64) -> f64 {
        self.advance_secs(start);
        let flow = Flow { links, remaining: bytes };
        // Forward-simulate a scratch copy to find this flow's drain,
        // recomputing the allocation at every intermediate completion.
        let mut flows = self.flows.clone();
        flows.push(flow.clone());
        let mut new_idx = flows.len() - 1;
        let mut t = self.now;
        let done_at = loop {
            let rates = Self::fair_rates(&self.caps, &flows);
            // Earliest completion among the active flows.
            let mut dt = f64::INFINITY;
            for (f, fl) in flows.iter().enumerate() {
                if rates[f] > 0.0 {
                    dt = dt.min(fl.remaining / rates[f]);
                }
            }
            if !dt.is_finite() {
                // No flow can progress (cannot happen with positive
                // caps; defensive so a bad config fails loudly).
                panic!("fluid network stalled: no flow can progress");
            }
            let new_dt = flows[new_idx].remaining / rates[new_idx].max(f64::MIN_POSITIVE);
            if new_dt <= dt {
                break t + new_dt;
            }
            for (f, fl) in flows.iter_mut().enumerate() {
                fl.remaining -= rates[f] * dt;
            }
            t += dt;
            // Drop drained flows, keeping the tracked index aligned.
            // The tracked flow is never dropped even if its residual
            // dips under DRAIN_EPS (possible when new_dt exceeds dt by
            // less than the epsilon): the next iteration's break
            // returns its near-zero completion instead.
            let mut i = 0;
            while i < flows.len() {
                if i != new_idx && flows[i].remaining <= DRAIN_EPS {
                    flows.remove(i);
                    if i < new_idx {
                        new_idx -= 1;
                    }
                } else {
                    i += 1;
                }
            }
        };
        self.flows.push(flow);
        done_at
    }

    /// Current per-link utilization: the sum of fair-share rates of the
    /// active flows crossing each link. Conservation: every entry is
    /// `<=` the link's capacity (pinned by `tests/network_models.rs`).
    fn utilization(&self) -> Vec<f64> {
        let rates = Self::fair_rates(&self.caps, &self.flows);
        let mut util = vec![0.0f64; self.caps.len()];
        for (f, fl) in self.flows.iter().enumerate() {
            for &l in &fl.links {
                util[l as usize] += rates[f];
            }
        }
        util
    }
}

// ---------------------------------------------------------------------------
// TopologyAware: per-link capacities.
// ---------------------------------------------------------------------------

/// Per-link capacities: every node has an uplink and a downlink into a
/// switching fabric with an optional aggregate core capacity (the
/// oversubscription knob of CluE-style clusters). Flows cross
/// `[up(src), core?, down(dst)]` and share each link max-min fairly,
/// with the allocation recomputed at every flow add/remove.
///
/// [`TopologyAware::uniform`] is the fluid counterpart of
/// [`NetworkState`]: fair-shared NICs, where shuffle contention slows
/// *everyone* down smoothly instead of serializing. With uniform links,
/// no core bottleneck, and no concurrent flows it degenerates to
/// [`Constant`] (pinned by `tests/network_models.rs`).
#[derive(Debug)]
pub struct TopologyAware {
    nodes: usize,
    base_bandwidth: f64,
    latency: SimTime,
    /// Index of the core link, if modeled.
    core_link: Option<u32>,
    fluid: FluidLinks,
}

impl TopologyAware {
    /// Per-node `(uplink, downlink)` capacities in bytes/s, plus an
    /// optional aggregate core capacity every inter-node flow also
    /// crosses.
    pub fn new(links: Vec<(f64, f64)>, core_capacity: Option<f64>, latency: SimTime) -> Self {
        let nodes = links.len();
        assert!(nodes > 0, "topology must have at least one node");
        let base = links.iter().map(|&(u, d)| u.min(d)).fold(f64::INFINITY, f64::min);
        let mut caps: Vec<f64> = Vec::with_capacity(2 * nodes + 1);
        caps.extend(links.iter().map(|&(u, _)| u));
        caps.extend(links.iter().map(|&(_, d)| d));
        let core_link = core_capacity.map(|c| {
            caps.push(c);
            (2 * nodes) as u32
        });
        TopologyAware {
            nodes,
            base_bandwidth: base,
            latency,
            core_link,
            fluid: FluidLinks::new(caps),
        }
    }

    /// Uniform fabric: every up/down link at `bandwidth` per NIC
    /// direction, no core bottleneck. Links `0..nodes` are transmit,
    /// `nodes..2*nodes` receive.
    pub fn uniform(nodes: usize, bandwidth: f64, latency: SimTime) -> Self {
        TopologyAware::new(vec![(bandwidth, bandwidth); nodes], None, latency)
    }
}

impl NetworkModel for TopologyAware {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn wire_time(&self, bytes: u64) -> SimTime {
        self.latency + SimTime::from_secs_f64(bytes as f64 / self.base_bandwidth)
    }

    fn transfer(&mut self, src: usize, dst: usize, bytes: u64, earliest: SimTime) -> SimTime {
        if src == dst {
            return earliest;
        }
        if bytes == 0 {
            return earliest + self.latency;
        }
        let mut links = vec![src as u32, (self.nodes + dst) as u32];
        if let Some(core) = self.core_link {
            links.push(core);
        }
        let done = self.fluid.admit(links, bytes as f64, earliest.as_secs_f64());
        SimTime::from_secs_f64(done) + self.latency
    }

    fn advance_to(&mut self, at: SimTime) {
        self.fluid.advance_secs(at.as_secs_f64());
    }

    fn utilization(&self) -> Vec<f64> {
        self.fluid.utilization()
    }

    fn capacities(&self) -> Vec<f64> {
        self.fluid.caps.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkState {
        // 1 MB/s, 1 ms latency, 4 nodes — easy mental arithmetic.
        NetworkState::new(4, 1e6, SimTime::from_millis(1))
    }

    #[test]
    fn wire_time_is_latency_plus_serialization() {
        let n = net();
        let t = n.wire_time(500_000); // 0.5 s + 1 ms
        assert_eq!(t, SimTime::from_micros(501_000));
    }

    #[test]
    fn loopback_is_free() {
        let mut n = net();
        let done = n.transfer(2, 2, 10_000_000, SimTime::from_secs(3));
        assert_eq!(done, SimTime::from_secs(3));
    }

    #[test]
    fn transfers_on_same_tx_pipe_serialize() {
        let mut n = net();
        let a = n.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let b = n.transfer(0, 2, 1_000_000, SimTime::ZERO);
        assert_eq!(a, SimTime::from_micros(1_001_000));
        // b could not start before a finished (same sender NIC).
        assert_eq!(b, SimTime::from_micros(2_002_000));
    }

    #[test]
    fn transfers_on_disjoint_pipes_run_concurrently() {
        let mut n = net();
        let a = n.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let b = n.transfer(2, 3, 1_000_000, SimTime::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn receiver_contention_serializes() {
        let mut n = net();
        let a = n.transfer(0, 3, 1_000_000, SimTime::ZERO);
        let b = n.transfer(1, 3, 1_000_000, SimTime::ZERO);
        assert!(b > a, "second transfer into node 3 must wait");
    }

    #[test]
    fn advance_to_floors_occupancy() {
        let mut n = net();
        n.advance_to(SimTime::from_secs(100));
        let done = n.transfer(0, 1, 0, SimTime::ZERO);
        // Latency only, but starting at the floored time.
        assert_eq!(done, SimTime::from_secs(100) + SimTime::from_millis(1));
    }

    #[test]
    fn constant_ignores_contention() {
        let mut c = Constant::new(4, 1e6, SimTime::from_millis(1));
        let a = c.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let b = c.transfer(0, 2, 1_000_000, SimTime::ZERO);
        assert_eq!(a, SimTime::from_micros(1_001_000));
        assert_eq!(b, a, "constant model: same-pipe transfers do not interfere");
        assert_eq!(c.transfer(3, 3, 1 << 30, SimTime::from_secs(7)), SimTime::from_secs(7));
    }

    #[test]
    fn shared_bandwidth_fair_shares_a_pipe() {
        // Two flows out of node 0 at once: each gets bw/2, so both take
        // ~2x the solo duration instead of 1x/2x serialization.
        let mut s = TopologyAware::uniform(4, 1e6, SimTime::ZERO);
        let a = s.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let b = s.transfer(0, 2, 1_000_000, SimTime::ZERO);
        // Flow a was committed alone (1 s); flow b shares a's residual
        // window and finishes later than the uncontended 1 s.
        assert_eq!(a, SimTime::from_secs(1));
        assert!(b > SimTime::from_micros(1_500_000), "shared pipe must slow the second flow: {b}");
    }

    #[test]
    fn shared_bandwidth_recomputes_on_remove() {
        let mut s = TopologyAware::uniform(4, 1e6, SimTime::ZERO);
        let _a = s.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let _b = s.transfer(0, 2, 4_000_000, SimTime::ZERO);
        // Both active: node 0's tx link is saturated at capacity.
        let util = s.utilization();
        assert!((util[0] - 1e6).abs() < 1.0, "tx0 must be saturated: {}", util[0]);
        // Flow a (0.5e6 B/s fair share) drains at t=2s; by t=3s only b
        // remains and its rate must have recomputed up to full capacity.
        s.advance_to(SimTime::from_secs(3));
        let util = s.utilization();
        assert!((util[0] - 1e6).abs() < 1.0, "b alone must get the full pipe: {}", util[0]);
        assert_eq!(util[4 + 1], 0.0, "a has drained; rx1 must be idle");
        assert!((util[4 + 2] - 1e6).abs() < 1.0, "rx2 carries b at full rate");
        // And conservation held throughout: never above capacity.
        for (u, c) in s.utilization().iter().zip(s.capacities()) {
            assert!(*u <= c + 1.0, "utilization {u} exceeds capacity {c}");
        }
    }

    #[test]
    fn topology_uniform_single_flow_matches_constant() {
        let mut t = TopologyAware::uniform(4, 1e6, SimTime::from_millis(1));
        let mut c = Constant::new(4, 1e6, SimTime::from_millis(1));
        for (bytes, at) in [(1_000_000u64, 0u64), (333_333, 5), (1, 9), (7_500_000, 20)] {
            let earliest = SimTime::from_secs(at);
            let tt = t.transfer(0, 1, bytes, earliest);
            let ct = c.transfer(0, 1, bytes, earliest);
            // Sequential (uncontended) flows: the fluid engine must
            // degenerate to the constant model, modulo 1 us of f64
            // rounding in the fluid clock.
            let delta = tt.as_micros().abs_diff(ct.as_micros());
            assert!(delta <= 1, "uniform uncontended TopologyAware diverged: {tt} vs {ct}");
            // Let the flow drain before the next one (uncontended).
            t.advance_to(tt);
        }
    }

    #[test]
    fn topology_core_bottleneck_slows_disjoint_pairs() {
        // Disjoint node pairs share nothing on the uniform fabric but
        // do share an oversubscribed core.
        let mut free = TopologyAware::uniform(4, 1e6, SimTime::ZERO);
        let mut tight = TopologyAware::new(vec![(1e6, 1e6); 4], Some(1e6), SimTime::ZERO);
        let f1 = free.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let f2 = free.transfer(2, 3, 1_000_000, SimTime::ZERO);
        let t1 = tight.transfer(0, 1, 1_000_000, SimTime::ZERO);
        let t2 = tight.transfer(2, 3, 1_000_000, SimTime::ZERO);
        assert_eq!(f1, f2, "no core: disjoint pairs run at full rate");
        assert_eq!(t1, f1, "first flow was admitted alone");
        assert!(t2 > f2, "1x-oversubscribed core must slow the second pair: {t2} vs {f2}");
    }

    #[test]
    fn estimate_is_pure_and_loopback_free() {
        let s = TopologyAware::uniform(4, 1e6, SimTime::from_millis(1));
        let e = s.estimate(0, 1, 1_000_000, SimTime::from_secs(2));
        assert_eq!(e, SimTime::from_secs(2) + SimTime::from_micros(1_001_000));
        assert_eq!(s.estimate(1, 1, 1 << 30, SimTime::from_secs(2)), SimTime::from_secs(2));
    }
}
