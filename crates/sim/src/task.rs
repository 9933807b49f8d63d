//! Tasks and results.
//!
//! A simulated task's "computation" is a keyed 64-bit mix of its id: cheap,
//! deterministic, and collision-free enough that any wrong result disagrees
//! with the correct one.  Adversaries return a *colluded* wrong value —
//! identical across all copies they hold, per the paper's cheating model.

use redundancy_core::{PartitionKind, RealizedPlan};

/// Identifier of a task within one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// A computed result value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResultValue(pub u64);

/// The correct result of a task: a SplitMix64-style finalizer of the id.
pub fn correct_result(task: TaskId) -> ResultValue {
    let mut z = task.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ResultValue(z ^ (z >> 31))
}

/// The colluding adversary's agreed-upon wrong result for a task.
///
/// Distinct from the correct result by construction.
pub fn colluded_wrong_result(task: TaskId) -> ResultValue {
    let ResultValue(c) = correct_result(task);
    ResultValue(c ^ 0xDEAD_BEEF_CAFE_F00D)
}

/// An honestly-faulty result (non-malicious error), parameterized so
/// different faulty hosts disagree with each other too.
pub fn faulty_result(task: TaskId, salt: u64) -> ResultValue {
    let ResultValue(c) = correct_result(task);
    ResultValue(
        c.wrapping_add(0x1000_0000_0000_0001)
            .rotate_left((salt % 63) as u32 + 1),
    )
}

/// Static description of one task in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// The task's id.
    pub id: TaskId,
    /// Number of copies handed out.
    pub multiplicity: u32,
    /// True if the supervisor knows the answer in advance (ringer or
    /// verified partition) — cheating on it is always caught.
    pub precomputed: bool,
}

/// True for partitions whose answers the supervisor knows in advance.
fn is_precomputed(kind: PartitionKind) -> bool {
    matches!(kind, PartitionKind::Ringer | PartitionKind::Verified)
}

/// Expand a [`RealizedPlan`] into concrete task specs.
///
/// Task ids are assigned contiguously in partition order, so the expansion
/// is deterministic and `specs.len()` equals ordinary tasks + ringers.
pub fn expand_plan(plan: &RealizedPlan) -> Vec<TaskSpec> {
    let mut specs = Vec::with_capacity((plan.n_tasks() + plan.ringer_tasks()) as usize);
    let mut next_id = 0u64;
    for p in plan.partitions() {
        let precomputed = is_precomputed(p.kind);
        for _ in 0..p.tasks {
            specs.push(TaskSpec {
                id: TaskId(next_id),
                multiplicity: p.multiplicity as u32,
                precomputed,
            });
            next_id += 1;
        }
    }
    specs
}

/// A maximal run of consecutive [`TaskSpec`]s sharing the same shape
/// (multiplicity and precomputed flag).
///
/// Because [`expand_plan`] emits tasks in partition order with contiguous
/// ids, a campaign of hundreds of thousands of tasks collapses into a
/// handful of groups (Balanced: head, tail, ringers) — the unit over which
/// the batched engine hoists sampler preparation and per-shape constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecGroup {
    /// Id of the first task in the run.
    pub first_id: TaskId,
    /// Number of consecutive tasks in the run.
    pub count: u64,
    /// Copies handed out per task in this run.
    pub multiplicity: u32,
    /// Whether the supervisor knows these answers in advance.
    pub precomputed: bool,
}

/// Group a spec slice into maximal runs of identical shape, allocation-free.
///
/// The concatenation of the yielded groups reproduces `specs` exactly, in
/// order; ids inside a group are contiguous from `first_id`.
pub fn grouped_specs(specs: &[TaskSpec]) -> impl Iterator<Item = SpecGroup> + '_ {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        let head = specs.get(start)?;
        let mut end = start + 1;
        while specs.get(end).is_some_and(|s| {
            s.multiplicity == head.multiplicity
                && s.precomputed == head.precomputed
                && s.id.0 == head.id.0 + (end - start) as u64
        }) {
            end += 1;
        }
        let group = SpecGroup {
            first_id: head.id,
            count: (end - start) as u64,
            multiplicity: head.multiplicity,
            precomputed: head.precomputed,
        };
        start = end;
        Some(group)
    })
}

/// A plan's spec groups, straight from its partitions: exactly
/// `grouped_specs(&expand_plan(plan))`, without expanding the plan.
///
/// Adjacent partitions of the same shape merge into one group whatever
/// their [`PartitionKind`]s, and empty partitions vanish, so the work and
/// memory are O(partitions) however many tasks the plan holds.
pub fn plan_groups(plan: &RealizedPlan) -> Vec<SpecGroup> {
    let mut groups: Vec<SpecGroup> = Vec::new();
    let mut next_id = 0u64;
    for p in plan.partitions().iter().filter(|p| p.tasks > 0) {
        let multiplicity = p.multiplicity as u32;
        let precomputed = is_precomputed(p.kind);
        match groups.last_mut() {
            Some(g) if g.multiplicity == multiplicity && g.precomputed == precomputed => {
                g.count += p.tasks;
            }
            _ => groups.push(SpecGroup {
                first_id: TaskId(next_id),
                count: p.tasks,
                multiplicity,
                precomputed,
            }),
        }
        next_id += p.tasks;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_result_is_deterministic_and_spread() {
        assert_eq!(correct_result(TaskId(1)), correct_result(TaskId(1)));
        assert_ne!(correct_result(TaskId(1)), correct_result(TaskId(2)));
        let distinct: std::collections::HashSet<_> =
            (0..10_000).map(|i| correct_result(TaskId(i))).collect();
        assert_eq!(distinct.len(), 10_000);
    }

    #[test]
    fn wrong_results_disagree_with_correct() {
        for i in 0..1000 {
            let t = TaskId(i);
            assert_ne!(colluded_wrong_result(t), correct_result(t));
            assert_ne!(faulty_result(t, i), correct_result(t));
        }
    }

    #[test]
    fn faulty_results_vary_with_salt() {
        let t = TaskId(7);
        assert_ne!(faulty_result(t, 1), faulty_result(t, 2));
    }

    #[test]
    fn expand_plan_counts_and_flags() {
        let plan = RealizedPlan::balanced(10_000, 0.75).unwrap();
        let specs = expand_plan(&plan);
        assert_eq!(specs.len() as u64, plan.n_tasks() + plan.ringer_tasks());
        let precomputed = specs.iter().filter(|s| s.precomputed).count() as u64;
        assert_eq!(precomputed, plan.ringer_tasks());
        // Ids contiguous.
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.id, TaskId(i as u64));
        }
        // Total assignments match the plan.
        let total: u64 = specs.iter().map(|s| s.multiplicity as u64).sum();
        assert_eq!(total, plan.total_assignments());
    }

    #[test]
    fn expand_simple_plan() {
        let plan = RealizedPlan::k_fold(100, 3, 0.5).unwrap();
        let specs = expand_plan(&plan);
        assert_eq!(specs.len(), 100);
        assert!(specs.iter().all(|s| s.multiplicity == 3 && !s.precomputed));
    }

    /// Re-expand groups into specs to check the partition is exact.
    fn flatten(groups: impl Iterator<Item = SpecGroup>) -> Vec<TaskSpec> {
        groups
            .flat_map(|g| {
                (0..g.count).map(move |i| TaskSpec {
                    id: TaskId(g.first_id.0 + i),
                    multiplicity: g.multiplicity,
                    precomputed: g.precomputed,
                })
            })
            .collect()
    }

    #[test]
    fn grouped_specs_partitions_expanded_plans_exactly() {
        for plan in [
            RealizedPlan::balanced(10_000, 0.75).unwrap(),
            RealizedPlan::k_fold(100, 3, 0.5).unwrap(),
        ] {
            let specs = expand_plan(&plan);
            let groups: Vec<SpecGroup> = grouped_specs(&specs).collect();
            assert_eq!(flatten(groups.iter().copied()), specs);
            // Maximality: adjacent groups differ in shape.
            for w in groups.windows(2) {
                assert!(
                    w[0].multiplicity != w[1].multiplicity || w[0].precomputed != w[1].precomputed
                );
            }
            // A big Balanced plan collapses to one group per partition —
            // a few dozen at most, independent of task count.
            assert!(
                groups.len() <= 32,
                "{} groups for {} tasks",
                groups.len(),
                specs.len()
            );
        }
    }

    #[test]
    fn grouped_specs_handles_empty_and_breaks_on_id_gaps() {
        assert_eq!(grouped_specs(&[]).count(), 0);
        // Same shape but discontiguous ids must not merge: the engine
        // reconstructs ids as first_id + offset.
        let specs = [
            TaskSpec {
                id: TaskId(0),
                multiplicity: 3,
                precomputed: false,
            },
            TaskSpec {
                id: TaskId(5),
                multiplicity: 3,
                precomputed: false,
            },
        ];
        let groups: Vec<SpecGroup> = grouped_specs(&specs).collect();
        assert_eq!(groups.len(), 2);
        assert_eq!(flatten(groups.into_iter()), specs);
    }

    /// A plan whose adjacent partitions share a shape under different
    /// kinds, with an empty partition between two of them.
    fn hand_built_plan() -> RealizedPlan {
        redundancy_json::from_str(
            r#"{"scheme": "hand-built", "n_tasks": 18, "epsilon": 0.5, "partitions": [
                {"multiplicity": 1, "tasks": 4, "kind": "Normal"},
                {"multiplicity": 1, "tasks": 3, "kind": "Tail"},
                {"multiplicity": 2, "tasks": 0, "kind": "Normal"},
                {"multiplicity": 1, "tasks": 2, "kind": "Normal"},
                {"multiplicity": 3, "tasks": 5, "kind": "Verified"},
                {"multiplicity": 3, "tasks": 1, "kind": "Ringer"},
                {"multiplicity": 3, "tasks": 4, "kind": "Normal"}
            ]}"#,
        )
        .unwrap()
    }

    /// Every plan shape the CLI and the exhibits build, and the hand-built
    /// one.
    fn plans() -> Vec<RealizedPlan> {
        use redundancy_core::{AssignmentMinimizing, ExtendedBalanced};
        let extended = |n: u64, eps: f64, m: usize| {
            let ext = ExtendedBalanced::new(n, eps, m).unwrap();
            RealizedPlan::from_ideal_weights("extended-balanced", n, eps, |i| ext.ideal_weight(i))
                .unwrap()
        };
        let minimizing = AssignmentMinimizing::solve(5_000, 0.5, 6).unwrap();
        vec![
            RealizedPlan::balanced(10_000, 0.75).unwrap(),
            RealizedPlan::balanced(200_000, 0.5).unwrap(),
            // `serve`'s default: ε = 0.5 boosted against a 0.2 share.
            RealizedPlan::balanced(1_000, 1.0 - 0.5f64.powf(1.0 / 0.8)).unwrap(),
            RealizedPlan::golle_stubblebine(10_000, 0.75).unwrap(),
            RealizedPlan::k_fold(100, 2, 0.5).unwrap(),
            RealizedPlan::k_fold(100, 3, 0.5).unwrap(),
            extended(10_000, 0.75, 2),
            extended(5_000, 0.9, 3),
            RealizedPlan::from_minimizing(&minimizing).unwrap(),
            hand_built_plan(),
        ]
    }

    #[test]
    fn plan_groups_equal_grouping_the_expanded_plan() {
        let mut kinds = Vec::new();
        for plan in plans() {
            kinds.extend(plan.partitions().iter().map(|p| p.kind));
            let groups = plan_groups(&plan);
            assert_eq!(
                groups,
                grouped_specs(&expand_plan(&plan)).collect::<Vec<_>>(),
                "{} over {} tasks",
                plan.scheme(),
                plan.n_tasks()
            );
        }
        for kind in [
            PartitionKind::Normal,
            PartitionKind::Tail,
            PartitionKind::Ringer,
            PartitionKind::Verified,
        ] {
            assert!(kinds.contains(&kind), "no plan has a {kind:?} partition");
        }
    }

    #[test]
    fn plan_groups_merge_equal_shapes_and_drop_empty_partitions() {
        let shapes: Vec<(u64, u64, u32, bool)> = plan_groups(&hand_built_plan())
            .iter()
            .map(|g| (g.first_id.0, g.count, g.multiplicity, g.precomputed))
            .collect();
        assert_eq!(
            shapes,
            [(0, 9, 1, false), (9, 6, 3, true), (15, 4, 3, false)]
        );
    }
}
