//! Deterministic sharded execution of many independent runs.
//!
//! [`BatchRunner`] is the one substrate every fan-out in the workspace
//! sits on: the sweep pool ([`parallel_map`](crate::sweep::parallel_map)
//! and friends delegate here), replication batches, and any future
//! multi-domain layer that runs one engine per contention domain.
//!
//! The design choices are all about reproducibility:
//!
//! * **Static round-robin sharding** — item `i` always runs on shard
//!   `i % workers`, each shard walks its items in increasing index
//!   order. No work-stealing queue, so the item→shard mapping is a pure
//!   function of `(items.len(), workers)`.
//! * **Input-order results** — the output vector is indexed by input
//!   position, bit-identical for 1 worker or 64, whatever the OS
//!   scheduler does (provided the work function is deterministic in
//!   `(index, item)`).
//! * **Per-shard registries, merged in shard order** — when a master
//!   [`Registry`] is attached, every shard gets a
//!   private registry and the shards are folded into the master in
//!   shard-index order after all workers join
//!   ([`Registry::merge_from`](plc_obs::Registry::merge_from)).
//!   Counters and timers merge order-independently; histogram float
//!   sums and gauges are pinned by that fixed order, so instrumented
//!   batches produce the same registry content for any worker count
//!   (up to wall-clock timer readings, which are never deterministic).

use crate::runner::{SimReport, Simulation};
use plc_obs::Registry;
use std::sync::mpsc;

/// A fixed-size sharded runner for many independent work items.
///
/// ```
/// use plc_sim::batch::BatchRunner;
///
/// let squares = BatchRunner::new()
///     .workers(4)
///     .run((0u64..100).collect(), |_, x, _| x * x);
/// assert_eq!(squares[7], 49);
/// ```
#[derive(Clone)]
pub struct BatchRunner {
    workers: usize,
    registry: Option<Registry>,
}

impl std::fmt::Debug for BatchRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchRunner")
            .field("workers", &self.workers)
            .field("registry", &self.registry.is_some())
            .finish()
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// A runner sized to the machine's available parallelism.
    pub fn new() -> Self {
        BatchRunner {
            workers: crate::sweep::default_workers(),
            registry: None,
        }
    }

    /// Fixed worker (shard) count. Results are identical for any value
    /// ≥ 1; only wall-clock time changes.
    pub fn workers(mut self, w: usize) -> Self {
        self.workers = w.max(1);
        self
    }

    /// Attach a master registry: every shard records into a private
    /// registry, and the shards are merged into `registry` in
    /// shard-index order when the batch completes.
    pub fn registry(mut self, registry: &Registry) -> Self {
        self.registry = Some(registry.clone());
        self
    }

    /// The configured worker count.
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// Evaluate `f(index, item, shard_registry)` for every item and
    /// return the results in input order.
    ///
    /// The registry argument is the shard's private registry when a
    /// master is attached, and a disabled no-op registry otherwise —
    /// work functions can instrument unconditionally.
    ///
    /// # Panics
    ///
    /// If merging a shard registry into the master fails (a metric name
    /// registered with different kinds on the two sides).
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &Registry) -> T + Sync,
    {
        self.run_observed(items, f, |_, _| {})
    }

    /// [`run`](BatchRunner::run) with a result hook: `on_result(index,
    /// &result)` is invoked from the **calling thread** as each item
    /// completes, in completion order. The hook receives only a shared
    /// reference, so it can persist or count results (checkpointers,
    /// progress bars) without being able to perturb the returned
    /// vector, which stays bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// If merging a shard registry into the master fails (a metric name
    /// registered with different kinds on the two sides).
    pub fn run_observed<I, T, F, P>(&self, items: Vec<I>, f: F, mut on_result: P) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &Registry) -> T + Sync,
        P: FnMut(usize, &T),
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(total);
        let shard_regs: Vec<Registry> = (0..workers)
            .map(|_| {
                if self.registry.is_some() {
                    Registry::new()
                } else {
                    Registry::disabled()
                }
            })
            .collect();

        let out = if workers == 1 {
            // Run inline: same results as the sharded path, no threads.
            let reg = &shard_regs[0];
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let r = f(i, item, reg);
                    on_result(i, &r);
                    r
                })
                .collect()
        } else {
            // Static round-robin: shard s owns items s, s+W, s+2W, …
            // walked in increasing index order.
            let mut shards: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, item) in items.into_iter().enumerate() {
                shards[i % workers].push((i, item));
            }
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            let mut out: Vec<Option<T>> = Vec::with_capacity(total);
            out.resize_with(total, || None);
            std::thread::scope(|scope| {
                for (shard, shard_items) in shards.into_iter().enumerate() {
                    let tx = tx.clone();
                    let f = &f;
                    let reg = shard_regs[shard].clone();
                    scope.spawn(move || {
                        for (i, item) in shard_items {
                            // A send fails only if the collector hung up,
                            // which cannot happen while items remain.
                            if tx.send((i, f(i, item, &reg))).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, result) in rx {
                    on_result(i, &result);
                    out[i] = Some(result);
                }
            });
            out.into_iter()
                .map(|r| r.expect("every shard produced its indices"))
                .collect()
        };

        if let Some(master) = &self.registry {
            // Shard-index order pins histogram sums and gauge values.
            for reg in &shard_regs {
                master
                    .merge_from(reg)
                    .unwrap_or_else(|e| panic!("shard registry merge failed: {e}"));
            }
        }
        out
    }

    /// [`run_observed`](BatchRunner::run_observed) with cooperative
    /// cancellation: each shard checks `token` **between items** and
    /// stops picking up new ones once it fires (an item already running
    /// completes — per-item interruption is the engine's own
    /// [`cancel`](crate::Simulation::cancel) hook). Results come back
    /// in input order as `Some` for items that ran and `None` for items
    /// skipped after cancellation; a token that never fires yields all
    /// `Some`, bit-identical to [`run`](BatchRunner::run).
    ///
    /// Shard registries still merge into the master in shard order, so
    /// whatever work did happen is accounted for.
    ///
    /// # Panics
    ///
    /// If merging a shard registry into the master fails (a metric name
    /// registered with different kinds on the two sides).
    pub fn run_cancellable<I, T, F, P>(
        &self,
        token: &plc_core::CancelToken,
        items: Vec<I>,
        f: F,
        mut on_result: P,
    ) -> Vec<Option<T>>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I, &Registry) -> T + Sync,
        P: FnMut(usize, &T),
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(total);
        let shard_regs: Vec<Registry> = (0..workers)
            .map(|_| {
                if self.registry.is_some() {
                    Registry::new()
                } else {
                    Registry::disabled()
                }
            })
            .collect();

        let out = if workers == 1 {
            let reg = &shard_regs[0];
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    if token.is_cancelled() {
                        return None;
                    }
                    let r = f(i, item, reg);
                    on_result(i, &r);
                    Some(r)
                })
                .collect()
        } else {
            let mut shards: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, item) in items.into_iter().enumerate() {
                shards[i % workers].push((i, item));
            }
            let (tx, rx) = mpsc::channel::<(usize, T)>();
            let mut out: Vec<Option<T>> = Vec::with_capacity(total);
            out.resize_with(total, || None);
            std::thread::scope(|scope| {
                for (shard, shard_items) in shards.into_iter().enumerate() {
                    let tx = tx.clone();
                    let f = &f;
                    let reg = shard_regs[shard].clone();
                    let token = token.clone();
                    scope.spawn(move || {
                        for (i, item) in shard_items {
                            if token.is_cancelled() {
                                break;
                            }
                            if tx.send((i, f(i, item, &reg))).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, result) in rx {
                    on_result(i, &result);
                    out[i] = Some(result);
                }
            });
            out
        };

        if let Some(master) = &self.registry {
            for reg in &shard_regs {
                master
                    .merge_from(reg)
                    .unwrap_or_else(|e| panic!("shard registry merge failed: {e}"));
            }
        }
        out
    }

    /// Run many independent simulations and return their reports in
    /// input order. With a master registry attached, each engine is
    /// instrumented into its shard's registry and the shards merge
    /// deterministically — `engine.steps` across the whole batch ends
    /// up in one counter no matter how many workers ran.
    ///
    /// # Panics
    ///
    /// On invalid simulation configurations (see [`Simulation::run`])
    /// or a shard registry merge failure.
    pub fn run_sims(&self, sims: Vec<Simulation>) -> Vec<SimReport> {
        let instrument = self.registry.is_some();
        self.run(sims, move |_, sim, reg| {
            if instrument {
                sim.registry(reg).run()
            } else {
                sim.run()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let out = BatchRunner::new()
            .workers(3)
            .run((0..50u64).collect(), |i, x, _| {
                assert_eq!(i as u64, x);
                x * 2
            });
        assert_eq!(out, (0..50u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u64> = BatchRunner::new().workers(4).run(Vec::new(), |_, x, _| x);
        assert!(empty.is_empty());
        let one = BatchRunner::new()
            .workers(4)
            .run(vec![7u64], |_, x, _| x + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn worker_count_does_not_change_sim_reports() {
        let sims: Vec<Simulation> = (0..6)
            .map(|k| Simulation::ieee1901(2).horizon_us(2e5).seed(k))
            .collect();
        let serial = BatchRunner::new().workers(1).run_sims(sims.clone());
        let sharded = BatchRunner::new().workers(4).run_sims(sims.clone());
        assert_eq!(serial, sharded);
        // And each report equals its standalone run.
        for (sim, report) in sims.iter().zip(&serial) {
            assert_eq!(&sim.run(), report);
        }
    }

    #[test]
    fn shard_registries_merge_into_master() {
        let count_steps = |workers: usize| {
            let master = Registry::new();
            let sims: Vec<Simulation> = (0..5)
                .map(|k| Simulation::ieee1901(2).horizon_us(2e5).seed(k))
                .collect();
            BatchRunner::new()
                .workers(workers)
                .registry(&master)
                .run_sims(sims);
            let snap = master.snapshot();
            (
                snap.counter("engine.steps").expect("instrumented"),
                snap.timer("engine.step").map(|t| t.count),
            )
        };
        let (serial_steps, serial_spans) = count_steps(1);
        let (sharded_steps, sharded_spans) = count_steps(3);
        assert!(serial_steps > 0);
        // Counter merges are exact: the total step count is identical
        // for any sharding.
        assert_eq!(serial_steps, sharded_steps);
        assert_eq!(serial_spans, sharded_spans);
    }

    #[test]
    fn without_registry_work_fn_sees_disabled_registry() {
        let out = BatchRunner::new()
            .workers(2)
            .run(vec![1, 2, 3], |_, x, reg| {
                let c = reg.counter("n");
                c.inc();
                (x, c.get())
            });
        assert!(
            out.iter().all(|&(_, c)| c == 0),
            "disabled registry records"
        );
    }

    #[test]
    fn on_result_sees_every_index_once() {
        let mut seen = [0u32; 20];
        BatchRunner::new().workers(3).run_observed(
            (0..20u64).collect(),
            |_, x, _| x,
            |i, &r| {
                assert_eq!(i as u64, r);
                seen[i] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn run_cancellable_with_idle_token_matches_run() {
        let token = plc_core::CancelToken::new();
        let out = BatchRunner::new().workers(3).run_cancellable(
            &token,
            (0..30u64).collect(),
            |_, x, _| x * 3,
            |_, _| {},
        );
        let plain = BatchRunner::new()
            .workers(3)
            .run((0..30u64).collect(), |_, x, _| x * 3);
        assert_eq!(
            out.into_iter().map(Option::unwrap).collect::<Vec<_>>(),
            plain
        );
    }

    #[test]
    fn pre_cancelled_token_runs_nothing() {
        for workers in [1, 4] {
            let token = plc_core::CancelToken::new();
            token.cancel();
            let mut observed = 0;
            let out = BatchRunner::new().workers(workers).run_cancellable(
                &token,
                (0..20u64).collect(),
                |_, x, _| x,
                |_, _| observed += 1,
            );
            assert_eq!(out.len(), 20);
            assert!(out.iter().all(Option::is_none), "workers={workers}");
            assert_eq!(observed, 0);
        }
    }

    #[test]
    fn cancelling_mid_batch_skips_the_tail() {
        // Inline path: the token is checked before every item, so a
        // cancel from the first result hook leaves exactly one Some.
        let token = plc_core::CancelToken::new();
        let out = BatchRunner::new().workers(1).run_cancellable(
            &token,
            (0..10u64).collect(),
            |_, x, _| x,
            |_, _| token.cancel(),
        );
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 1);
        assert_eq!(out[0], Some(0));
    }

    #[test]
    fn cancellable_still_merges_shard_registries() {
        let master = Registry::new();
        let token = plc_core::CancelToken::new();
        BatchRunner::new()
            .workers(2)
            .registry(&master)
            .run_cancellable(
                &token,
                (0..6u64).collect(),
                |_, _, reg| reg.counter("items").inc(),
                |_, _| {},
            );
        assert_eq!(master.snapshot().counter("items"), Some(6));
    }

    #[test]
    #[should_panic(expected = "shard registry merge failed")]
    fn kind_clash_with_master_panics() {
        let master = Registry::new();
        master.gauge("engine.steps").set(1.0); // clashes with the counter
        let sims = vec![Simulation::ieee1901(1).horizon_us(1e5)];
        BatchRunner::new()
            .workers(1)
            .registry(&master)
            .run_sims(sims);
    }
}
