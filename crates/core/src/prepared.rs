//! The configuration-independent half of a simulator's set-up, done once
//! per workload and shared by every cell that simulates it.
//!
//! Building a [`Simulator`] needs two things that depend only on the
//! program, the seed and `func_warmup`, never on the [`CoreConfig`]: the
//! [`StaticMeta`] decode of the image, and the committed branches of the
//! functional warm-up that train the BTB (the stand-in for the paper's
//! long ChampSim warm-up). `Prepared` holds both. Its warm-up is the
//! committed branch stream of [`ExecutionEngine::step`] in compact form;
//! each cell replays it into its own BTB under its own allocation rule,
//! which leaves that BTB exactly as stepping the engine and inserting
//! every branch would.
//!
//! [`PreparedProgram`] owns a program together with the `Prepared` of
//! the default `func_warmup`, the one sweep cells use. The first cell to
//! ask builds it; concurrent cells block on that one build instead of
//! repeating it, and later cells reuse it for as long as the holder
//! lives. A cell with any other `func_warmup` records a one-off warm-up
//! that is dropped once its simulator is built, so the holder's memory
//! does not grow with the values its callers ask for.

use crate::config::CoreConfig;
use crate::meta::{self, StaticMeta};
use crate::sim::{Simulator, RUN_SEED};
use fdip_bpred::Btb;
use fdip_program::{ExecutionEngine, Program};
use fdip_types::InstrKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Warm-up word bit: the branch was taken.
const TAKEN: u32 = 1 << 0;
/// Warm-up word bit: a second word follows, holding the slot of the
/// branch's `next_pc`, because it differs from the embedded target.
const HAS_NEXT: u32 = 1 << 1;
/// The slot index sits above the two flag bits.
const SLOT_SHIFT: u32 = 2;

/// A workload's decoded image and recorded functional warm-up: the
/// input every cell of the workload shares.
#[derive(Debug)]
pub(crate) struct Prepared {
    meta: StaticMeta,
    seed: u64,
    func_warmup: u64,
    /// One word per committed warm-up branch, in commit order: slot
    /// index, [`TAKEN`] and [`HAS_NEXT`]. A taken branch whose `next_pc`
    /// is not its embedded target (indirect branches, returns, and
    /// off-image targets that restart at the entry) is followed by the
    /// slot of that `next_pc`.
    warm: Vec<u32>,
}

impl Prepared {
    /// Decodes `program` and records the branches of its first
    /// `func_warmup` committed instructions under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the image holds 2^30 slots or more (a slot index must
    /// fit a warm-up word).
    pub(crate) fn new(program: &Program, seed: u64, func_warmup: u64) -> Self {
        let meta = StaticMeta::new(program);
        assert!(
            meta.len() < 1 << (32 - SLOT_SHIFT),
            "image too large for the warm-up encoding"
        );
        let slot = |pc| {
            // The engine only ever runs and lands on mapped code.
            meta.slot_of(pc).expect("committed pcs are mapped") as u32
        };
        let mut warm = Vec::new();
        let mut engine = ExecutionEngine::new(program, seed);
        for _ in 0..func_warmup {
            let d = engine.step();
            let InstrKind::Branch { target, .. } = d.kind else {
                continue;
            };
            let s = slot(d.pc);
            if !d.taken {
                warm.push(s << SLOT_SHIFT);
            } else if d.next_pc == target {
                warm.push(s << SLOT_SHIFT | TAKEN);
            } else {
                warm.extend([s << SLOT_SHIFT | TAKEN | HAS_NEXT, slot(d.next_pc)]);
            }
        }
        warm.shrink_to_fit();
        Prepared {
            meta,
            seed,
            func_warmup,
            warm,
        }
    }

    /// The decoded image.
    pub(crate) fn meta(&self) -> &StaticMeta {
        &self.meta
    }

    /// The engine seed the warm-up ran under.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Committed instructions in the recorded warm-up.
    pub(crate) fn func_warmup(&self) -> u64 {
        self.func_warmup
    }

    /// Trains `btb` on the recorded warm-up: every taken branch is
    /// inserted with its `next_pc`, and, with `allocate_not_taken`,
    /// every not-taken direct branch with its embedded target.
    pub(crate) fn warm_btb(&self, btb: &mut Btb, allocate_not_taken: bool) {
        let m = &self.meta;
        let mut words = self.warm.iter();
        while let Some(&w) = words.next() {
            let s = (w >> SLOT_SHIFT) as usize;
            let target = if w & TAKEN == 0 {
                if !allocate_not_taken || m.flags(s) & meta::F_DIRECT == 0 {
                    continue;
                }
                m.target(s)
            } else if w & HAS_NEXT == 0 {
                m.target(s)
            } else {
                words.next().map_or(m.target(s), |&n| m.addr_of(n as usize))
            };
            if let Some(kind) = meta::tag_branch_kind(m.tag(s)) {
                btb.insert(m.addr_of(s), kind, target);
            }
        }
    }
}

/// A workload's program plus its prepared set-up — the [`StaticMeta`]
/// decode and the recorded functional warm-up — for the default
/// `func_warmup`, built by the first cell that needs it and kept for the
/// holder's lifetime.
///
/// Holders are owned by whoever runs the workload's cells (a sweep
/// runner, the serve daemon), never looked up by program address, so a
/// warm-up input can only ever reach simulators of its own program.
#[derive(Debug)]
pub struct PreparedProgram {
    program: Arc<Program>,
    /// The set-up for [`SHARED_FUNC_WARMUP`].
    shared: OnceLock<Prepared>,
    builds: AtomicU64,
}

/// The `func_warmup` whose set-up a [`PreparedProgram`] keeps: the
/// default, which every sweep cell uses.
const SHARED_FUNC_WARMUP: u64 = CoreConfig::DEFAULT_FUNC_WARMUP;

impl PreparedProgram {
    /// Wraps `program`; nothing is built until a simulator is requested.
    pub fn new(program: Arc<Program>) -> Self {
        PreparedProgram {
            program,
            shared: OnceLock::new(),
            builds: AtomicU64::new(0),
        }
    }

    /// The program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Shared set-ups built so far: at most one, however many cells ask
    /// for it concurrently (a build that panics is retried by the next
    /// request). One-off set-ups are not counted.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// A simulator for `cfg` positioned at the program entry, seeded as
    /// [`run_workload`](crate::run_workload) seeds it. Identical to
    /// `Simulator::new(cfg, program, seed)` with that seed. With the
    /// default `cfg.func_warmup` the decode and the warm-up branch
    /// stream come from this holder: the first request records them, and
    /// concurrent requests wait for that recording. Any other value gets
    /// a one-off set-up, dropped once the simulator is built.
    pub fn simulator(&self, cfg: CoreConfig) -> Simulator<'_> {
        if cfg.func_warmup != SHARED_FUNC_WARMUP {
            return Simulator::new(cfg, &self.program, RUN_SEED);
        }
        let prepared = self.shared.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            Prepared::new(&self.program, RUN_SEED, SHARED_FUNC_WARMUP)
        });
        Simulator::with_prepared(cfg, &self.program, prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdip_bpred::HistoryPolicy;
    use fdip_prefetch::PrefetcherKind;
    use fdip_program::{ProgramBuilder, ProgramParams};

    fn program(seed: u64) -> Arc<Program> {
        Arc::new(
            ProgramBuilder::new(ProgramParams {
                seed,
                num_funcs: 48,
                ..ProgramParams::default()
            })
            .build("prepared-test"),
        )
    }

    fn run(mut sim: Simulator<'_>) -> String {
        let (stats, dists) = sim.run_detailed(1_000, 5_000);
        format!("{stats:?}{dists:?}")
    }

    #[test]
    fn shared_cells_equal_one_off_cells() {
        let mut cfgs: Vec<CoreConfig> = Vec::new();
        for func_warmup in [0, 1, CoreConfig::default().func_warmup] {
            for policy in HistoryPolicy::ALL {
                cfgs.push(CoreConfig {
                    policy,
                    func_warmup,
                    ..CoreConfig::fdp()
                });
            }
            cfgs.push(CoreConfig {
                perfect_btb: true,
                func_warmup,
                ..CoreConfig::fdp()
            });
            cfgs.push(CoreConfig {
                func_warmup,
                ..CoreConfig::fdp()
                    .with_btb_entries(1024)
                    .with_prefetcher(PrefetcherKind::SnfourlDisBtb)
            });
        }
        for seed in [3, 4] {
            let p = program(seed);
            let shared = PreparedProgram::new(Arc::clone(&p));
            for cfg in &cfgs {
                assert_eq!(
                    run(shared.simulator(cfg.clone())),
                    run(Simulator::new(cfg.clone(), &p, RUN_SEED)),
                    "{cfg:?} on program {seed}"
                );
            }
            assert_eq!(shared.builds(), 1, "one build, for the default func_warmup");
        }
    }

    #[test]
    fn other_func_warmups_do_not_grow_the_holder() {
        let shared = PreparedProgram::new(program(7));
        for func_warmup in [0, 1, 12_345, 3_000_000] {
            let cfg = CoreConfig {
                func_warmup,
                ..CoreConfig::fdp()
            };
            shared.simulator(cfg);
        }
        assert_eq!(shared.builds(), 0);
        assert!(shared.shared.get().is_none(), "one-off set-ups are dropped");
        shared.simulator(CoreConfig::fdp());
        assert_eq!(shared.builds(), 1);
    }

    #[test]
    fn replay_trains_the_btb_as_stepping_does() {
        let p = program(5);
        for policy in HistoryPolicy::ALL {
            let cfg = CoreConfig {
                policy,
                ..CoreConfig::fdp().with_btb_entries(2048)
            };
            let mut stepped = Btb::new(cfg.btb);
            let mut engine = ExecutionEngine::new(&p, RUN_SEED);
            for _ in 0..50_000 {
                let d = engine.step();
                let Some(kind) = d.kind.branch_kind() else {
                    continue;
                };
                if d.taken {
                    stepped.insert(d.pc, kind, d.next_pc);
                } else if let (true, Some(t)) =
                    (policy.allocate_not_taken(), d.kind.static_target())
                {
                    stepped.insert(d.pc, kind, t);
                }
            }
            let mut replayed = Btb::new(cfg.btb);
            Prepared::new(&p, RUN_SEED, 50_000)
                .warm_btb(&mut replayed, policy.allocate_not_taken());
            assert_eq!(
                format!("{replayed:?}"),
                format!("{stepped:?}"),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn warm_words_hold_one_word_per_branch_plus_indirect_targets() {
        let p = program(6);
        let prepared = Prepared::new(&p, RUN_SEED, 20_000);
        let (mut branches, mut extra) = (0, 0);
        for d in ExecutionEngine::new(&p, RUN_SEED).take(20_000) {
            if let InstrKind::Branch { target, .. } = d.kind {
                branches += 1;
                extra += usize::from(d.taken && d.next_pc != target);
            }
        }
        assert!(extra > 0, "returns need a second word");
        assert_eq!(prepared.warm.len(), branches + extra);
        assert!(Prepared::new(&p, RUN_SEED, 0).warm.is_empty());
    }
}
