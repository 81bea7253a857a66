//! Output checks written apart from the program: they recount from the
//! designs themselves instead of calling the program's own validators.

use eblocks_behavior::Program;
use eblocks_core::{BlockId, BlockKind, Design};
use eblocks_sim::{equivalence, Simulator, Stimulus, Time};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Debug;

/// `Ok` when `got` equals `want`, else an error naming both.
pub fn expect_eq<T: PartialEq + Debug>(got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?}"))
    }
}

/// `Ok` when `got` is at most `limit`.
pub fn expect_at_most<T: PartialOrd + Debug>(got: T, limit: T) -> Result<(), String> {
    if got <= limit {
        Ok(())
    } else {
        Err(format!("{got:?} exceeds {limit:?}"))
    }
}

/// Runs `original` and the synthesized network (with its programs) under
/// `stim` and compares settled outputs, as `eblocks_sim::equivalence`
/// does, half a stimulus spacing after every edge.
pub fn check_equivalent(
    original: &Design,
    synthesized: &Design,
    programs: &HashMap<BlockId, Program>,
    stim: &Stimulus,
    spacing: Time,
    tolerance: Time,
) -> Result<(), String> {
    let left = Simulator::new(original).map_err(|e| e.to_string())?;
    let right =
        Simulator::with_programs(synthesized, programs.clone()).map_err(|e| e.to_string())?;
    let report =
        equivalence(&left, &right, stim, spacing / 2, tolerance).map_err(|e| e.to_string())?;
    match report.mismatches.first() {
        None => Ok(()),
        Some(first) => Err(format!(
            "{} mismatch(es) over {} samples, first {first:?}",
            report.mismatches.len(),
            report.sample_times.len()
        )),
    }
}

/// SplitMix64 over `parts`: every seeded choice of the benchmark is a pure
/// function of the workload seed and the choice's coordinates.
pub fn mix(parts: &[u64]) -> u64 {
    let mut acc: u64 = 0x6a09_e667_f3bc_c908;
    for &part in parts {
        let mut z = acc.wrapping_add(part).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = z ^ (z >> 31);
    }
    acc
}

/// Fisher–Yates shuffle of `0..n` driven by [`mix`].
pub fn shuffled(n: usize, seed: u64, salt: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(&[seed, salt, i as u64]) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// `(inner total, programmable)` counted from the blocks of a design:
/// every pre-defined compute block and every programmable block is inner.
pub fn inner_counts(design: &Design) -> (usize, usize) {
    let mut inner = 0;
    let mut programmable = 0;
    for id in design.blocks() {
        match design.block(id).expect("iterated block").kind() {
            BlockKind::Compute(_) => inner += 1,
            BlockKind::Programmable(_) => {
                inner += 1;
                programmable += 1;
            }
            _ => {}
        }
    }
    (inner, programmable)
}

/// Checks a partitioning against the pin budget: partitions are disjoint,
/// hold at least two pre-defined compute blocks each, and need at most
/// `max_in` distinct input signals and `max_out` distinct output signals.
/// A signal is a driving `(block, output port)`; a signal that fans out to
/// several sinks takes one pin.
pub fn check_pin_budget(
    design: &Design,
    partitions: &[Vec<BlockId>],
    max_in: usize,
    max_out: usize,
) -> Result<(), String> {
    let mut owner: HashMap<BlockId, usize> = HashMap::new();
    for (p, members) in partitions.iter().enumerate() {
        if members.len() < 2 {
            return Err(format!("partition {p} has {} member(s)", members.len()));
        }
        for &b in members {
            let block = design
                .block(b)
                .ok_or_else(|| format!("partition {p}: unknown block {b:?}"))?;
            if !matches!(block.kind(), BlockKind::Compute(_)) {
                return Err(format!("partition {p}: `{}` is not inner", block.name()));
            }
            if let Some(q) = owner.insert(b, p) {
                return Err(format!("`{}` is in partitions {q} and {p}", block.name()));
            }
        }
    }
    let mut inputs: Vec<BTreeSet<(BlockId, u8)>> = vec![BTreeSet::new(); partitions.len()];
    let mut outputs: Vec<BTreeSet<(BlockId, u8)>> = vec![BTreeSet::new(); partitions.len()];
    for w in design.wires() {
        let from = owner.get(&w.from).copied();
        let to = owner.get(&w.to).copied();
        if from == to {
            continue;
        }
        if let Some(p) = to {
            inputs[p].insert((w.from, w.from_port));
        }
        if let Some(p) = from {
            outputs[p].insert((w.from, w.from_port));
        }
    }
    for p in 0..partitions.len() {
        if inputs[p].len() > max_in || outputs[p].len() > max_out {
            return Err(format!(
                "partition {p} needs {} in / {} out, budget {max_in} / {max_out}",
                inputs[p].len(),
                outputs[p].len()
            ));
        }
    }
    Ok(())
}

/// The inner total a partitioning leaves: one programmable block per
/// partition plus every compute block no partition covers.
pub fn total_after(design: &Design, partitions: &[Vec<BlockId>]) -> usize {
    let covered: usize = partitions.iter().map(Vec::len).sum();
    let (inner, _) = inner_counts(design);
    inner - covered + partitions.len()
}

fn sensor_names(design: &Design) -> Vec<String> {
    design
        .sensors()
        .map(|s| design.block(s).expect("sensor").name().to_string())
        .collect()
}

/// A Gray-code walk over all `2^k` combinations of the design's `k`
/// sensors, one sensor edge every `spacing` ticks.
pub fn gray_walk(design: &Design, spacing: Time) -> Stimulus {
    let sensors = sensor_names(design);
    let mut state = vec![false; sensors.len()];
    let mut stim = Stimulus::new();
    for step in 1..(1u64 << sensors.len()) {
        let bit = step.trailing_zeros() as usize;
        state[bit] = !state[bit];
        stim = stim.set(step * spacing, sensors[bit].clone(), state[bit]);
    }
    stim
}

/// A seeded random walk of `steps` single-sensor flips, one every
/// `spacing` ticks.
pub fn random_walk(design: &Design, spacing: Time, steps: u64, seed: u64) -> Stimulus {
    let sensors = sensor_names(design);
    let mut state = vec![false; sensors.len()];
    let mut stim = Stimulus::new();
    if sensors.is_empty() {
        return stim;
    }
    for step in 1..=steps {
        let bit = (mix(&[seed, step]) % sensors.len() as u64) as usize;
        state[bit] = !state[bit];
        stim = stim.set(step * spacing, sensors[bit].clone(), state[bit]);
    }
    stim
}

/// Hop count between sites `a` and `b` of a `width`-wide row-major mesh.
pub fn grid_hops(width: usize, a: usize, b: usize) -> usize {
    let (ar, ac) = (a / width, a % width);
    let (br, bc) = (b / width, b % width);
    ar.abs_diff(br) + ac.abs_diff(bc)
}

/// Checks that link traffic lies between what the delivered packets must
/// have crossed and what every sent packet could have crossed, on a ring
/// where node `i` sends to node `i + 1` over `hops[i]` links.
pub fn check_link_traffic(
    hops: &[usize],
    sent: &[u64],
    received: &[u64],
    link_packets: u64,
) -> Result<(), String> {
    let n = hops.len();
    let mut low = 0u64;
    let mut high = 0u64;
    for i in 0..n {
        low += received[(i + 1) % n] * hops[i] as u64;
        high += sent[i] * hops[i] as u64;
    }
    if (low..=high).contains(&link_packets) {
        Ok(())
    } else {
        Err(format!(
            "link traffic {link_packets} outside [{low}, {high}]"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblocks_core::{ComputeKind, OutputKind, SensorKind};

    /// a, b, c → and(a, b) → or(·, c) → not → led, plus a second led on the
    /// and gate: four inner blocks with known pin demands.
    fn chain() -> (Design, [BlockId; 4]) {
        let mut d = Design::new("chain");
        let a = d.add_block("a", SensorKind::Button);
        let b = d.add_block("b", SensorKind::Motion);
        let c = d.add_block("c", SensorKind::Light);
        let and = d.add_block("and", ComputeKind::and2());
        let or = d.add_block("or", ComputeKind::or2());
        let not = d.add_block("not", ComputeKind::Not);
        let inv = d.add_block("inv", ComputeKind::Not);
        let led = d.add_block("led", OutputKind::Led);
        let led2 = d.add_block("led2", OutputKind::Led);
        d.connect((a, 0), (and, 0)).unwrap();
        d.connect((b, 0), (and, 1)).unwrap();
        d.connect((and, 0), (or, 0)).unwrap();
        d.connect((c, 0), (or, 1)).unwrap();
        d.connect((or, 0), (not, 0)).unwrap();
        d.connect((not, 0), (led, 0)).unwrap();
        d.connect((and, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (led2, 0)).unwrap();
        (d, [and, or, not, inv])
    }

    #[test]
    fn expect_eq_rejects_a_table1_row_off_by_one() {
        assert!(expect_eq((6, 4), (6, 4)).is_ok());
        let err = expect_eq((7, 4), (6, 4)).unwrap_err();
        assert!(err.contains("(7, 4)") && err.contains("(6, 4)"), "{err}");
        assert!(expect_eq(999u64, 1000).is_err());
        assert!(expect_at_most(5, 5).is_ok());
        assert!(expect_at_most(6, 5).is_err());
    }

    /// door AND NOT light, once from pre-defined blocks and once as one
    /// programmable block running `program`.
    fn garage(program: &str) -> (Design, Design, HashMap<BlockId, Program>) {
        let mut d = Design::new("garage");
        let door = d.add_block("door", SensorKind::ContactSwitch);
        let light = d.add_block("light", SensorKind::Light);
        let inv = d.add_block("inv", ComputeKind::Not);
        let both = d.add_block("both", ComputeKind::and2());
        let led = d.add_block("led", OutputKind::Led);
        d.connect((door, 0), (both, 0)).unwrap();
        d.connect((light, 0), (inv, 0)).unwrap();
        d.connect((inv, 0), (both, 1)).unwrap();
        d.connect((both, 0), (led, 0)).unwrap();
        let mut s = Design::new("garage-synth");
        let door = s.add_block("door", SensorKind::ContactSwitch);
        let light = s.add_block("light", SensorKind::Light);
        let p = s.add_block("prog0", eblocks_core::ProgrammableSpec::default());
        let led = s.add_block("led", OutputKind::Led);
        s.connect((door, 0), (p, 0)).unwrap();
        s.connect((light, 0), (p, 1)).unwrap();
        s.connect((p, 0), (led, 0)).unwrap();
        let programs = HashMap::from([(p, eblocks_behavior::parse(program).unwrap())]);
        (d, s, programs)
    }

    #[test]
    fn equivalence_check_rejects_a_wrong_program() {
        let (d, s, good) = garage("on input { out0 = in0 && !in1; }");
        let stim = gray_walk(&d, 64);
        assert!(check_equivalent(&d, &s, &good, &stim, 64, 8).is_ok());
        // Differs from the original only when both sensors are high, a
        // combination the Gray walk reaches.
        let (_, s, bad) = garage("on input { out0 = in0 != in1; }");
        let err = check_equivalent(&d, &s, &bad, &stim, 64, 8).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn pin_budget_accepts_a_fitting_partitioning() {
        let (d, [and, or, not, inv]) = chain();
        // {or, not}: inputs and.0 and c.0, output not.0.
        assert!(check_pin_budget(&d, &[vec![or, not]], 2, 2).is_ok());
        // {and, inv}: inputs a.0, b.0; outputs and.0 (to or), inv.0.
        assert!(check_pin_budget(&d, &[vec![and, inv]], 2, 2).is_ok());
        assert!(check_pin_budget(&d, &[vec![and, inv], vec![or, not]], 2, 2).is_ok());
        assert_eq!(total_after(&d, &[vec![or, not]]), 3);
    }

    #[test]
    fn pin_budget_rejects_hand_made_wrong_answers() {
        let (d, [and, or, not, inv]) = chain();
        // {and, or}: inputs a, b, c — three signals over a 2-in budget.
        let err = check_pin_budget(&d, &[vec![and, or]], 2, 2).unwrap_err();
        assert!(err.contains("3 in"), "{err}");
        // {and, or, not, inv}: outputs not.0 and inv.0 fit, inputs do not.
        assert!(check_pin_budget(&d, &[vec![and, or, not, inv]], 2, 2).is_err());
        // Overlapping partitions.
        let err = check_pin_budget(&d, &[vec![or, not], vec![not, inv]], 2, 2).unwrap_err();
        assert!(err.contains("in partitions"), "{err}");
        // A single-block partition.
        assert!(check_pin_budget(&d, &[vec![not]], 2, 2).is_err());
        // A non-inner member.
        let a = d.block_by_name("a").unwrap();
        assert!(check_pin_budget(&d, &[vec![a, and]], 2, 2).is_err());
        // {and, inv} fits 2 outputs but not 1.
        assert!(check_pin_budget(&d, &[vec![and, inv]], 2, 1).is_err());
    }

    #[test]
    fn inner_counts_see_programmable_blocks() {
        let (d, _) = chain();
        assert_eq!(inner_counts(&d), (4, 0));
        let mut p = d.clone();
        p.add_block("prog0", eblocks_core::ProgrammableSpec::default());
        assert_eq!(inner_counts(&p), (5, 1));
    }

    #[test]
    fn gray_walk_visits_every_combination_once() {
        let (d, _) = chain();
        let stim = gray_walk(&d, 10);
        let events = stim.events();
        assert_eq!(events.len(), 7);
        let names = sensor_names(&d);
        let mut state = [false; 3];
        let mut seen = BTreeSet::from([0u32]);
        for (t, name, v) in events {
            assert_eq!(t % 10, 0);
            let i = names.iter().position(|n| n == name).unwrap();
            assert_ne!(state[i], *v, "every event flips one sensor");
            state[i] = *v;
            let code = state
                .iter()
                .enumerate()
                .map(|(i, &s)| u32::from(s) << i)
                .sum();
            assert!(seen.insert(code), "combination {code} visited twice");
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn random_walk_is_seeded() {
        let (d, _) = chain();
        let a = random_walk(&d, 16, 50, 1);
        assert_eq!(a.events().len(), 50);
        assert_eq!(a.events(), random_walk(&d, 16, 50, 1).events());
        assert_ne!(a.events(), random_walk(&d, 16, 50, 2).events());
    }

    #[test]
    fn grid_hops_are_manhattan_distances() {
        // 4-wide mesh: site 5 is (1, 1), site 14 is (3, 2).
        assert_eq!(grid_hops(4, 5, 14), 3);
        assert_eq!(grid_hops(4, 3, 4), 4); // row wrap is not adjacency
        assert_eq!(grid_hops(4, 0, 1), 1);
        assert_eq!(grid_hops(32, 999, 0), 31 + 7);
    }

    #[test]
    fn link_traffic_bounds() {
        // Three nodes, ring hops 1, 2, 3.
        let hops = [1, 2, 3];
        let sent = [10, 10, 10];
        let received = [10, 9, 10]; // one packet from node 0 lost
                                    // Delivered at least: 9·1 + 10·2 + 10·3 = 59; sent at most 60.
        assert!(check_link_traffic(&hops, &sent, &received, 59).is_ok());
        assert!(check_link_traffic(&hops, &sent, &received, 60).is_ok());
        assert!(check_link_traffic(&hops, &sent, &received, 58).is_err());
        assert!(check_link_traffic(&hops, &sent, &received, 61).is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let a = shuffled(20, 3, 1);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_eq!(a, shuffled(20, 3, 1));
        assert_ne!(a, shuffled(20, 4, 1));
    }
}
