//! Does bounded staleness pay under live skew?
//!
//! The session's `max_lag` lets a partition absorb on messages up to
//! `max_lag` iterations old; the regime that is for is a *skewed*
//! cluster, where fresh reads would wait on a straggler. This example
//! measures that regime live: a decorator over any [`AsyncIterative`]
//! (here PageRank's `PrAsync`, wrapped, not forked) stretches every
//! gmap to `factor × node time` by **sleeping** — a slow node, not a
//! busy core — under three skews: `none`; `one slow x4` (partition 0's
//! node, always); `heavy tail` (a Pareto(1.5) factor ≤ 20 drawn per
//! gmap from `verdict_unit(seed, [p, i])`, a pure function of the seed).
//!
//! It runs lag ∈ {0, 1, 2, 4} × the skews in two lane regimes — 2 lanes
//! (one worker + the caller, the ledger's regime; node time = the gmap's
//! own compute time) and a lane per partition (a fixed node time per
//! gmap, so a two-core box behaves like a node per partition), reps
//! alternating between the windows — and prints per cell the median
//! wall time, the iteration count and ‖r − r*‖∞ against a 1e-10 serial
//! power iteration. A lagged run stops later and closer to r*, so the
//! bar a window has to clear is **time to equal error**. The decorator
//! logs every absorb (when, its delta, its distance from r*), and from
//! that log:
//!
//! * `t_eq_s` — when the run's *own stop rule* (`max_lag + 1`
//!   consecutive fully absorbed iterations under the tolerance) would
//!   have fired at the loosest tolerance that still ends within lag 0's
//!   final error. A looser tolerance only stops the same run earlier,
//!   so the replay is exact; tuning it with hindsight is generous to the
//!   lagged run. `x @=err` is lag 0's `t_eq_s` over the cell's.
//! * `t_cross_s` — the first instant every partition's newest state is
//!   within lag 0's final error, whether or not a stop rule could know:
//!   the bound no convergence detector can beat.
//!
//! Asserted: every cell converges, and every lag-0 cell is bitwise the
//! undecorated lag-0 solve. Timings are printed, never asserted.
//!
//! ```sh
//! cargo run --release --example staleness_under_skew             # ≈ 9 min
//! cargo run --release --example staleness_under_skew -- --quick  # seconds (CI)
//! cargo run --release --example staleness_under_skew -- --seed 7
//! ```

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asyncmr::apps::pagerank::reference::pagerank_sequential;
use asyncmr::apps::pagerank::session::{PrAsync, PrPartitionState};
use asyncmr::apps::pagerank::PageRankConfig;
use asyncmr::core::hash::verdict_unit;
use asyncmr::core::{
    Absorbed, AsyncFixedPointDriver, AsyncIterative, Dependence, GmapOutput, Outbox,
};
use asyncmr::graph::generators;
use asyncmr::partition::{apply_locality_order, Partitioner, RangePartitioner};
use asyncmr::runtime::ThreadPool;

/// How much slower than nominal the node running a gmap is.
#[derive(Clone, Copy)]
enum Skew {
    None,
    OneSlow,
    HeavyTail,
}

const SKEWS: [(&str, Skew); 3] =
    [("none", Skew::None), ("one slow x4", Skew::OneSlow), ("heavy tail", Skew::HeavyTail)];
const LAGS: [usize; 4] = [0, 1, 2, 4];

impl Skew {
    fn factor(self, seed: u64, p: usize, iteration: usize) -> f64 {
        match self {
            Skew::OneSlow if p == 0 => 4.0,
            Skew::None | Skew::OneSlow => 1.0,
            Skew::HeavyTail => {
                let u = verdict_unit(seed, &[p as u64, iteration as u64]);
                (1.0 - u).powf(-1.0 / 1.5).min(20.0)
            }
        }
    }
}

/// One absorb, as the decorator saw it.
struct AbsorbRecord {
    /// Seconds since the run started.
    at: f64,
    partition: usize,
    iteration: usize,
    delta: f64,
    /// `‖state − reference‖∞` of the absorbed state.
    err: f64,
}

/// `inner` on a skewed cluster: each gmap takes `factor ×` its node
/// time — the longer of its own compute time and `node_time` — with the
/// difference slept, so results are `inner`'s bit for bit. Every absorb
/// is logged.
struct Skewed<'a, A: AsyncIterative> {
    inner: &'a A,
    skew: Skew,
    node_time: Duration,
    seed: u64,
    /// `‖state − reference‖∞` of partition `p`'s state.
    probe: &'a (dyn Fn(usize, &A::State) -> f64 + Sync),
    started: Instant,
    /// In absorb order (absorbs run on the scheduler thread only).
    absorbs: Mutex<Vec<AbsorbRecord>>,
}

impl<A: AsyncIterative> AsyncIterative for Skewed<'_, A> {
    type State = A::State;
    type Update = A::Update;
    type Msg = A::Msg;

    fn partitions(&self) -> usize {
        self.inner.partitions()
    }

    fn dependencies(&self, p: usize) -> Dependence {
        self.inner.dependencies(p)
    }

    fn init_state(&self, p: usize) -> A::State {
        self.inner.init_state(p)
    }

    fn gmap(
        &self,
        p: usize,
        iteration: usize,
        state: &A::State,
        outbox: &mut Outbox<A::Msg>,
    ) -> GmapOutput<A::Update> {
        let started = Instant::now();
        let out = self.inner.gmap(p, iteration, state, outbox);
        let node = started.elapsed().max(self.node_time);
        let total = node.mul_f64(self.skew.factor(self.seed, p, iteration));
        std::thread::sleep(total.saturating_sub(started.elapsed()));
        out
    }

    fn absorb(
        &self,
        p: usize,
        iteration: usize,
        state: &A::State,
        update: A::Update,
        inbox: &[(usize, &[A::Msg])],
    ) -> Absorbed<A::State> {
        let absorbed = self.inner.absorb(p, iteration, state, update, inbox);
        let record = AbsorbRecord {
            at: self.started.elapsed().as_secs_f64(),
            partition: p,
            iteration,
            delta: absorbed.delta,
            err: (self.probe)(p, &absorbed.state),
        };
        self.absorbs.lock().expect("absorb log poisoned").push(record);
        absorbed
    }

    fn converged(&self, max_delta: f64) -> bool {
        self.inner.converged(max_delta)
    }

    fn state_bytes(&self, state: &A::State) -> u64 {
        self.inner.state_bytes(state)
    }
}

/// When an absorb log first got within `target` of the reference:
/// `(t_eq_s, t_cross_s)`, each `INFINITY` if it never did (see the
/// [module docs](self) for the two).
fn times_to(log: &[AbsorbRecord], partitions: usize, max_lag: usize, target: f64) -> (f64, f64) {
    let mut crossed = f64::INFINITY;
    let mut newest = vec![f64::INFINITY; partitions];
    let mut above = partitions;
    // Per iteration: partitions absorbed, when the last one did, and
    // the max delta and error over them.
    let mut iterations: Vec<(usize, f64, f64, f64)> = Vec::new();
    for rec in log {
        above -= usize::from(newest[rec.partition] > target);
        above += usize::from(rec.err > target);
        newest[rec.partition] = rec.err;
        if above == 0 {
            crossed = crossed.min(rec.at);
        }
        if rec.iteration >= iterations.len() {
            iterations.resize(rec.iteration + 1, (0, 0.0, 0.0, 0.0));
        }
        let it = &mut iterations[rec.iteration];
        *it = (it.0 + 1, rec.at, it.2.max(rec.delta), it.3.max(rec.err));
    }
    // The session stops at the first frontier whose last `max_lag + 1`
    // iterations all passed the tolerance: the tolerance that stops it
    // at `f` is just above that window's largest delta, and it must not
    // have stopped the run any earlier.
    let complete = iterations.iter().take_while(|it| it.0 == partitions).count();
    let window_max =
        |f: usize| iterations[f - max_lag..=f].iter().fold(0.0f64, |m, it| m.max(it.2));
    let could_stop = (max_lag..complete)
        .find(|&f| iterations[f].3 <= target && (max_lag..f).all(|g| window_max(g) > window_max(f)))
        .map_or(f64::INFINITY, |f| iterations[f].1);
    (could_stop, crossed)
}

/// One timed solve of one cell.
struct Run {
    wall: f64,
    could_stop: f64,
    crossed: f64,
    iterations: usize,
    err: f64,
}

fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.collect();
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One lane regime: `(name, vertices, partitions, pool workers, node
/// time in ms, warm-up solves, timed reps)`.
type Regime = (&'static str, usize, usize, usize, u64, usize, usize);

/// Runs one regime's table; returns its best lag > 0 `x @=err`.
fn run_regime(
    &(name, nodes, partitions, workers, node_ms, warmups, reps): &Regime,
    seed: u64,
) -> f64 {
    let g = generators::preferential_attachment_streamed(nodes, 5, 0.95, 1024, seed);
    let parts = RangePartitioner.partition(&g, partitions);
    let (g, parts, _perm) = apply_locality_order(&g, &parts);
    let cfg = PageRankConfig::default();
    let pool = ThreadPool::new(workers);
    let algo = PrAsync::new_on(&pool, &g, &parts, &cfg);
    let (reference, _) = pagerank_sequential(&g, cfg.damping, 1e-10, 10_000);
    let probe = |p: usize, state: &PrPartitionState| {
        let nodes = &algo.partitions()[p].nodes;
        nodes
            .iter()
            .zip(&state.ranks)
            .fold(0.0f64, |acc, (&v, &r)| acc.max((r - reference[v as usize]).abs()))
    };
    let error = |states: &[Arc<PrPartitionState>]| {
        states.iter().enumerate().fold(0.0f64, |acc, (p, state)| acc.max(probe(p, state)))
    };
    let plain = AsyncFixedPointDriver::new(cfg.max_iterations).run(&pool, &algo);
    assert!(plain.report.converged, "the undecorated lag-0 solve must converge");
    // Lag 0 is bitwise reproducible: its final error is this number in
    // every cell and every rep.
    let target = error(&plain.states);

    println!(
        "\n{name}: {workers} workers + the scheduler lane, n = {nodes}, {partitions} partitions, \
         node time {node_ms} ms, {warmups} warm-up solves, median of {reps}"
    );
    println!(
        "{:<6} {:<12} {:>7} {:>5} {:>9} {:>7} {:>7} {:>7} {:>9} {:>8}  runs: wall_s/t_eq_s",
        "window",
        "skew",
        "wall_s",
        "iters",
        "err",
        "x lag0",
        "t_eq_s",
        "x @=err",
        "t_cross_s",
        "x cross"
    );
    let mut best = 0.0f64;
    for (skew_label, skew) in SKEWS {
        // Reps alternate between the windows, so host drift lands on
        // every row alike.
        let mut cells: Vec<Vec<Run>> = LAGS.iter().map(|_| Vec::new()).collect();
        for rep in 0..warmups + reps {
            for (&lag, runs) in LAGS.iter().zip(&mut cells) {
                let skewed = Skewed {
                    inner: &algo,
                    skew,
                    node_time: Duration::from_millis(node_ms),
                    seed,
                    probe: &probe,
                    started: Instant::now(),
                    absorbs: Mutex::new(Vec::new()),
                };
                let driver = AsyncFixedPointDriver::new(cfg.max_iterations).with_max_lag(lag);
                let out = driver.run(&pool, &skewed);
                let wall = skewed.started.elapsed().as_secs_f64();
                assert!(out.report.converged, "lag {lag} under {skew_label} did not converge");
                if lag == 0 {
                    let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
                    assert!(
                        out.states.iter().zip(&plain.states).all(|(a, b)| a
                            .ranks
                            .iter()
                            .zip(&b.ranks)
                            .all(same)),
                        "lag 0 under {skew_label} is not bitwise the undecorated solve"
                    );
                }
                if rep >= warmups {
                    let log = skewed.absorbs.into_inner().expect("absorb log poisoned");
                    let (could_stop, crossed) = times_to(&log, partitions, lag, target);
                    let (iterations, err) = (out.report.global_iterations, error(&out.states));
                    runs.push(Run { wall, could_stop, crossed, iterations, err });
                }
            }
        }
        let medians = |runs: &[Run]| {
            (
                median(runs.iter().map(|r| r.wall)),
                median(runs.iter().map(|r| r.could_stop)),
                median(runs.iter().map(|r| r.crossed)),
            )
        };
        let lag0 = medians(&cells[0]);
        for (&lag, runs) in LAGS.iter().zip(&mut cells) {
            let (wall, could_stop, crossed) = medians(runs);
            if lag > 0 {
                best = best.max(lag0.1 / could_stop);
            }
            let listed: Vec<String> =
                runs.iter().map(|r| format!("{:.3}/{:.3}", r.wall, r.could_stop)).collect();
            runs.sort_by(|a, b| a.wall.total_cmp(&b.wall));
            let typical = &runs[runs.len() / 2];
            println!(
                "lag {lag:<2} {skew_label:<12} {wall:>7.3} {:>5} {:>9.2e} {:>7.2} {could_stop:>7.3} \
                 {:>7.2} {crossed:>9.3} {:>8.2}  {}",
                typical.iterations,
                typical.err,
                lag0.0 / wall,
                lag0.1 / could_stop,
                lag0.2 / crossed,
                listed.join(" ")
            );
        }
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .map_or(42, |at| args[at + 1].parse().expect("--seed takes an integer"));
    let regimes: [Regime; 2] = if quick {
        [("2 lanes", 20_000, 8, 1, 0, 0, 1), ("a lane per partition", 20_000, 8, 8, 2, 0, 1)]
    } else {
        [("2 lanes", 400_000, 64, 1, 0, 2, 5), ("a lane per partition", 200_000, 16, 16, 40, 0, 5)]
    };
    println!(
        "staleness under live skew: PageRank to ‖Δ‖∞ < 1e-5, err = ‖r − r*‖∞ against a 1e-10 \
         serial power iteration; seed {seed}, {} host cores",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let best = regimes.iter().map(|r| run_regime(r, seed)).fold(0.0, f64::max);
    println!("\nevery cell converged; every lag-0 cell is bitwise the undecorated solve");
    if quick {
        println!("(--quick: single reps of milliseconds, the ratios above are noise)");
    } else {
        println!("best lag > 0 cell, time to equal error: {best:.2}x lag 0 (it pays at >= 1.30x)");
    }
}
