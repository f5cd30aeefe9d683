//! Random network topology generation (§5.3).
//!
//! For each machine an outbound degree is drawn, then that many distinct
//! target machines; each ordered pair gets one or two physical
//! unidirectional links. The generator guarantees the result is strongly
//! connected, as the paper's test generation program does, by resampling
//! (strong connectivity is overwhelmingly likely at the paper's degrees)
//! and, as a last resort, by adding a Hamiltonian repair cycle.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use dstage_model::network::strongly_connected;

use crate::config::GeneratorConfig;

/// A physical unidirectional link between two machines (indices), later
/// expanded into virtual links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalLink {
    /// Sending machine index.
    pub from: usize,
    /// Receiving machine index.
    pub to: usize,
}

/// Draws a strongly connected physical topology on `machines` nodes.
///
/// Returns the physical links (with multiplicity ≤
/// `config.max_links_per_pair` per ordered pair).
pub fn generate_topology(
    config: &GeneratorConfig,
    machines: usize,
    rng: &mut StdRng,
) -> Vec<PhysicalLink> {
    debug_assert!(machines >= 2);
    for _ in 0..100 {
        let links = draw_topology(config, machines, rng);
        if is_strongly_connected(machines, &links) {
            return links;
        }
    }
    // Resampling failed (only possible with extreme configs, e.g.
    // out-degree 1): repair with a random cycle through all machines.
    let mut links = draw_topology(config, machines, rng);
    let mut order: Vec<usize> = (0..machines).collect();
    order.shuffle(rng);
    for w in 0..machines {
        let from = order[w];
        let to = order[(w + 1) % machines];
        links.push(PhysicalLink { from, to });
    }
    debug_assert!(is_strongly_connected(machines, &links));
    links
}

fn draw_topology(config: &GeneratorConfig, machines: usize, rng: &mut StdRng) -> Vec<PhysicalLink> {
    // §5.3: each machine's outbound degree is drawn, then "the end
    // machines for the links are randomly generated", with at most
    // `max_links_per_pair` physical links between any ordered pair and no
    // self-links. Drawing end machines per *link* (rather than per
    // neighbour) is what makes the at-most-two constraint bite.
    let mut links = Vec::new();
    let max_per_pair = config.max_links_per_pair.max(1);
    let lo = *config.out_degree.start();
    let hi = (*config.out_degree.end()).min((machines - 1) * max_per_pair);
    let lo = lo.min(hi);
    for from in 0..machines {
        let degree = rng.gen_range(lo..=hi);
        let mut per_target = vec![0usize; machines];
        let mut placed = 0;
        while placed < degree {
            let to = rng.gen_range(0..machines);
            if to == from || per_target[to] >= max_per_pair {
                continue;
            }
            per_target[to] += 1;
            links.push(PhysicalLink { from, to });
            placed += 1;
        }
    }
    links
}

/// Strong connectivity of the physical adjacency.
fn is_strongly_connected(machines: usize, links: &[PhysicalLink]) -> bool {
    strongly_connected(machines, links.iter().map(|l| (l.from, l.to)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_topology_is_strongly_connected() {
        let config = GeneratorConfig::default();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let links = generate_topology(&config, 11, &mut rng);
            assert!(is_strongly_connected(11, &links), "seed {seed}");
        }
    }

    #[test]
    fn degrees_and_multiplicity_respect_bounds() {
        let config = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let links = draw_topology(&config, 11, &mut rng);
        for from in 0..11 {
            let outgoing: Vec<usize> =
                links.iter().filter(|l| l.from == from).map(|l| l.to).collect();
            // Outbound degree (number of physical links) in 4..=7.
            assert!(
                (4..=7).contains(&outgoing.len()),
                "machine {from} has {} links",
                outgoing.len()
            );
            for &to in &outgoing {
                let multiplicity = outgoing.iter().filter(|&&t| t == to).count();
                assert!(multiplicity <= 2, "more than two links {from}->{to}");
                assert!(to != from, "self-link generated");
            }
        }
    }

    #[test]
    fn repair_cycle_kicks_in_for_degenerate_configs() {
        // Out-degree 1 on 10 machines rarely yields strong connectivity;
        // the helper must still terminate with a connected graph.
        let config = GeneratorConfig { out_degree: 1..=1, ..GeneratorConfig::default() };
        let mut rng = StdRng::seed_from_u64(0);
        let links = generate_topology(&config, 10, &mut rng);
        assert!(is_strongly_connected(10, &links));
    }

    #[test]
    fn connectivity_check_detects_disconnection() {
        let links = vec![PhysicalLink { from: 0, to: 1 }, PhysicalLink { from: 1, to: 0 }];
        assert!(is_strongly_connected(2, &links));
        assert!(!is_strongly_connected(3, &links));
        assert!(!is_strongly_connected(2, &[PhysicalLink { from: 0, to: 1 }]));
    }

    #[test]
    fn out_degree_capped_by_machine_count() {
        // 3 machines support at most (3-1)*2 = 4 outgoing links; degrees
        // of 4..=7 must be capped there.
        let config = GeneratorConfig::default();
        let mut rng = StdRng::seed_from_u64(9);
        let links = draw_topology(&config, 3, &mut rng);
        for from in 0..3 {
            let count = links.iter().filter(|l| l.from == from).count();
            assert!(count <= 4, "machine {from} has {count} links");
            for to in 0..3 {
                let multiplicity = links.iter().filter(|l| l.from == from && l.to == to).count();
                assert!(multiplicity <= 2);
            }
        }
    }
}
