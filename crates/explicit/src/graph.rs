//! Worklist graph algorithms over explicit edge lists.

use std::collections::{HashMap, HashSet, VecDeque};

/// Forward adjacency map of an edge list.
pub fn successors(edges: &[(u32, u32)]) -> HashMap<u32, Vec<u32>> {
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in edges {
        map.entry(a).or_default().push(b);
    }
    map
}

/// Backward adjacency map of an edge list.
pub fn predecessors(edges: &[(u32, u32)]) -> HashMap<u32, Vec<u32>> {
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in edges {
        map.entry(b).or_default().push(a);
    }
    map
}

/// States reachable from `init` (inclusive) via `edges`.
pub fn forward_reachable(init: &HashSet<u32>, edges: &[(u32, u32)]) -> HashSet<u32> {
    let succ = successors(edges);
    let mut seen: HashSet<u32> = init.clone();
    let mut queue: VecDeque<u32> = init.iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        if let Some(next) = succ.get(&s) {
            for &t in next {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
    }
    seen
}

/// States that can reach `target` (inclusive) via `edges`.
pub fn backward_reachable(target: &HashSet<u32>, edges: &[(u32, u32)]) -> HashSet<u32> {
    let pred = predecessors(edges);
    let mut seen: HashSet<u32> = target.clone();
    let mut queue: VecDeque<u32> = target.iter().copied().collect();
    while let Some(s) = queue.pop_front() {
        if let Some(prev) = pred.get(&s) {
            for &t in prev {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
    }
    seen
}

/// States of `states` with no outgoing edge in `edges`.
pub fn deadlocks(states: &HashSet<u32>, edges: &[(u32, u32)]) -> HashSet<u32> {
    let with_succ: HashSet<u32> = edges.iter().map(|&(a, _)| a).collect();
    states.iter().copied().filter(|s| !with_succ.contains(s)).collect()
}

/// Edges that start and end inside `states` (projection, Definition 6).
pub fn project(edges: &[(u32, u32)], states: &HashSet<u32>) -> Vec<(u32, u32)> {
    edges.iter().copied().filter(|(a, b)| states.contains(a) && states.contains(b)).collect()
}

/// Largest subset of `states` in which every state has an outgoing edge
/// (within the subset) — the explicit twin of
/// `ftrepair_program::semantics::prune_deadlocks`.
pub fn prune_deadlocks(states: &HashSet<u32>, edges: &[(u32, u32)]) -> HashSet<u32> {
    let mut s = states.clone();
    loop {
        let inside = project(edges, &s);
        let dead = deadlocks(&s, &inside);
        if dead.is_empty() {
            return s;
        }
        for d in dead {
            s.remove(&d);
        }
    }
}

/// Like [`prune_deadlocks`], but members of `exempt` survive even without a
/// successor (originally-terminal states under stuttering semantics).
pub fn prune_deadlocks_except(
    states: &HashSet<u32>,
    edges: &[(u32, u32)],
    exempt: &HashSet<u32>,
) -> HashSet<u32> {
    let mut s = states.clone();
    loop {
        let inside = project(edges, &s);
        let dead: Vec<u32> =
            deadlocks(&s, &inside).into_iter().filter(|d| !exempt.contains(d)).collect();
        if dead.is_empty() {
            return s;
        }
        for d in dead {
            s.remove(&d);
        }
    }
}

/// The largest subset of `states` all of whose members have a successor
/// (via `edges`) back inside the subset — nonempty iff `edges` restricted to
/// `states` admits an infinite path. Used to detect non-recovering cycles.
pub fn cycle_core(states: &HashSet<u32>, edges: &[(u32, u32)]) -> HashSet<u32> {
    let mut s = states.clone();
    loop {
        let inside = project(edges, &s);
        let with_succ: HashSet<u32> = inside.iter().map(|&(a, _)| a).collect();
        let next: HashSet<u32> = s.intersection(&with_succ).copied().collect();
        if next == s {
            return s;
        }
        s = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(v: &[u32]) -> HashSet<u32> {
        v.iter().copied().collect()
    }

    #[test]
    fn forward_reachability_on_a_line() {
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        assert_eq!(forward_reachable(&set(&[0]), &edges), set(&[0, 1, 2, 3]));
        assert_eq!(forward_reachable(&set(&[2]), &edges), set(&[2, 3]));
    }

    #[test]
    fn backward_reachability_on_a_line() {
        let edges = vec![(0, 1), (1, 2), (2, 3)];
        assert_eq!(backward_reachable(&set(&[3]), &edges), set(&[0, 1, 2, 3]));
        assert_eq!(backward_reachable(&set(&[1]), &edges), set(&[0, 1]));
    }

    #[test]
    fn deadlocks_and_projection() {
        let edges = vec![(0, 1), (1, 2)];
        let all = set(&[0, 1, 2]);
        assert_eq!(deadlocks(&all, &edges), set(&[2]));
        let sub = set(&[0, 1]);
        assert_eq!(project(&edges, &sub), vec![(0, 1)]);
    }

    #[test]
    fn prune_deadlocks_unwinds() {
        let edges = vec![(0, 1), (1, 2)];
        assert!(prune_deadlocks(&set(&[0, 1, 2]), &edges).is_empty());
        let edges_cycle = vec![(0, 1), (1, 0), (1, 2)];
        assert_eq!(prune_deadlocks(&set(&[0, 1, 2]), &edges_cycle), set(&[0, 1]));
    }

    #[test]
    fn cycle_core_finds_loops() {
        let edges = vec![(0, 1), (1, 0), (2, 3)];
        assert_eq!(cycle_core(&set(&[0, 1, 2, 3]), &edges), set(&[0, 1]));
        let dag = vec![(0, 1), (1, 2)];
        assert!(cycle_core(&set(&[0, 1, 2]), &dag).is_empty());
        let self_loop = vec![(5, 5)];
        assert_eq!(cycle_core(&set(&[5]), &self_loop), set(&[5]));
    }
}
