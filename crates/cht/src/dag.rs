//! The failure-detector sample DAG (Appendix B, Figure 1).
//!
//! Every process `p` maintains a DAG `G_p` whose vertices are failure
//! detector samples `[q, d, k]` ("`q` obtained `d` at its `k`-th query") and
//! whose edges record the temporal order between samples. `G_p` is built by
//! repeatedly (1) querying the local detector module, (2) adding a vertex for
//! the new sample with edges from every existing vertex, and (3) merging the
//! DAGs received from other processes. The DAGs of correct processes converge
//! to the same ever-growing limit DAG, whose paths provide the *stimuli* —
//! process activations plus failure-detector values — for the locally
//! simulated runs of the algorithm under reduction.

use std::collections::BTreeSet;
use std::fmt;

use ec_sim::{FdHistory, ProcessId, Time};

/// A vertex `[q, d, k]` of the sample DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagVertex<R> {
    /// The querying process `q`.
    pub process: ProcessId,
    /// The sampled failure-detector value `d`.
    pub value: R,
    /// The per-process query index `k` (1-based).
    pub k: u64,
    /// The global time of the query (used only for reporting; the reduction
    /// itself never reads it).
    pub time: Time,
}

/// A failure-detector sample DAG `G_p`.
///
/// Vertices are stored in insertion order; because every new sample receives
/// edges from *all* existing vertices (Figure 1), insertion order is a
/// topological order and any subsequence of it is a path.
#[derive(Clone, PartialEq, Eq)]
pub struct FdDag<R> {
    vertices: Vec<DagVertex<R>>,
    /// Edges as pairs of vertex indices `(earlier, later)`.
    edges: BTreeSet<(usize, usize)>,
    /// Per-process query counters.
    next_k: Vec<u64>,
}

impl<R> FdDag<R> {
    /// An empty DAG for a system of `n` processes.
    pub fn new(n: usize) -> Self {
        FdDag {
            vertices: Vec::new(),
            edges: BTreeSet::new(),
            next_k: vec![0; n],
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.next_k.len()
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Returns `true` if the DAG has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertices in insertion (topological) order.
    pub fn vertices(&self) -> &[DagVertex<R>] {
        &self.vertices
    }

    /// Returns `true` if `(earlier, later)` is an edge.
    pub fn has_edge(&self, earlier: usize, later: usize) -> bool {
        self.edges.contains(&(earlier, later))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

impl<R: Clone + PartialEq + fmt::Debug> FdDag<R> {
    /// Records a new sample of process `p` (Figure 1's query step): adds the
    /// vertex `[p, value, k]` with edges from every existing vertex, and
    /// returns its index.
    pub fn add_sample(&mut self, p: ProcessId, value: R, time: Time) -> usize {
        if p.index() >= self.next_k.len() {
            self.next_k.resize(p.index() + 1, 0);
        }
        self.next_k[p.index()] += 1;
        let idx = self.vertices.len();
        for earlier in 0..idx {
            self.edges.insert((earlier, idx));
        }
        self.vertices.push(DagVertex {
            process: p,
            value,
            k: self.next_k[p.index()],
            time,
        });
        idx
    }

    /// Merges another DAG into this one (the `G_p ← G_p ∪ G_q` step): every
    /// vertex of `other` not yet present is appended (keeping its own `[q, d,
    /// k]` identity), and edges from all existing vertices are added so the
    /// merged structure stays transitively ordered.
    pub fn merge(&mut self, other: &FdDag<R>) {
        for v in &other.vertices {
            if !self.contains(v) {
                let idx = self.vertices.len();
                for earlier in 0..idx {
                    self.edges.insert((earlier, idx));
                }
                if v.process.index() >= self.next_k.len() {
                    self.next_k.resize(v.process.index() + 1, 0);
                }
                self.next_k[v.process.index()] = self.next_k[v.process.index()].max(v.k);
                self.vertices.push(v.clone());
            }
        }
    }

    /// Returns `true` if an identical sample `[q, d, k]` is already present.
    pub fn contains(&self, v: &DagVertex<R>) -> bool {
        self.vertices
            .iter()
            .any(|w| w.process == v.process && w.k == v.k && w.value == v.value)
    }

    /// Builds the (already merged) DAG corresponding to a recorded failure
    /// detector history: one vertex per sample, in sampling order.
    pub fn from_history(history: &FdHistory<R>, n: usize) -> Self {
        let mut dag = FdDag::new(n);
        for s in history.samples() {
            dag.add_sample(s.process, s.value.clone(), s.time);
        }
        dag
    }

    /// The prefix DAG containing only the first `len` vertices — used to model
    /// what a process has seen "so far" when emulating Ω over time.
    pub fn prefix(&self, len: usize) -> FdDag<R> {
        let len = len.min(self.vertices.len());
        let mut dag = FdDag::new(self.n());
        for v in &self.vertices[..len] {
            dag.add_sample(v.process, v.value.clone(), v.time);
        }
        // restore original per-process k values (they are reconstructed
        // identically because samples are replayed in the original order)
        dag
    }
}

impl<R: fmt::Debug> fmt::Debug for FdDag<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FdDag")
            .field("vertices", &self.vertices.len())
            .field("edges", &self.edges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// The structural properties of Appendix B:
    /// (2) samples of one process are totally ordered by their `k`,
    /// (3) the edge relation is transitively closed.
    fn check_structure<R: fmt::Debug>(dag: &FdDag<R>) -> Result<(), String> {
        // (2): for two vertices of the same process, k order must follow
        // insertion order and an edge must exist.
        for i in 0..dag.vertices.len() {
            for j in (i + 1)..dag.vertices.len() {
                let (a, b) = (&dag.vertices[i], &dag.vertices[j]);
                if a.process == b.process {
                    if a.k >= b.k {
                        return Err(format!(
                            "per-process query indices not increasing: {:?} before {:?}",
                            a, b
                        ));
                    }
                    if !dag.has_edge(i, j) {
                        return Err(format!("missing same-process edge {i} -> {j}"));
                    }
                }
            }
        }
        // (3): transitivity.
        for &(a, b) in &dag.edges {
            for &(c, d) in &dag.edges {
                if b == c && !dag.has_edge(a, d) {
                    return Err(format!("edges {a}->{b} and {c}->{d} but no edge {a}->{d}"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn figure1_construction_adds_edges_from_all_existing_vertices() {
        let mut dag = FdDag::new(2);
        let a = dag.add_sample(p(0), 0u8, Time::new(1));
        let b = dag.add_sample(p(1), 1u8, Time::new(2));
        let c = dag.add_sample(p(0), 2u8, Time::new(3));
        assert_eq!(dag.len(), 3);
        assert!(dag.has_edge(a, b));
        assert!(dag.has_edge(a, c));
        assert!(dag.has_edge(b, c));
        assert!(!dag.has_edge(c, a));
        assert_eq!(dag.edge_count(), 3);
        // per-process k indices
        assert_eq!(dag.vertices()[a].k, 1);
        assert_eq!(dag.vertices()[c].k, 2);
        assert!(check_structure(&dag).is_ok());
    }

    #[test]
    fn merge_is_idempotent_and_preserves_structure() {
        let mut g1 = FdDag::new(2);
        g1.add_sample(p(0), 10u8, Time::new(1));
        g1.add_sample(p(0), 11u8, Time::new(3));
        let mut g2 = FdDag::new(2);
        g2.add_sample(p(1), 20u8, Time::new(2));

        let mut merged = g1.clone();
        merged.merge(&g2);
        assert_eq!(merged.len(), 3);
        merged.merge(&g2);
        assert_eq!(merged.len(), 3, "merging twice must not duplicate");
        merged.merge(&g1);
        assert_eq!(merged.len(), 3);
        assert!(check_structure(&merged).is_ok());
        let processes: BTreeSet<ProcessId> = merged.vertices().iter().map(|v| v.process).collect();
        assert_eq!(processes.len(), 2);
    }

    #[test]
    fn dags_of_different_processes_converge_after_mutual_merge() {
        let mut g1 = FdDag::new(2);
        let mut g2 = FdDag::new(2);
        g1.add_sample(p(0), 1u8, Time::new(1));
        g2.add_sample(p(1), 2u8, Time::new(1));
        g1.add_sample(p(0), 3u8, Time::new(2));
        // exchange
        let snapshot1 = g1.clone();
        g1.merge(&g2);
        g2.merge(&snapshot1);
        assert_eq!(g1.len(), g2.len());
        for v in g2.vertices() {
            assert!(g1.contains(v));
        }
    }

    #[test]
    fn from_history_replays_samples_in_order() {
        let mut h = FdHistory::new(2);
        h.record(p(0), Time::new(1), 7u8);
        h.record(p(1), Time::new(2), 8u8);
        h.record(p(0), Time::new(3), 9u8);
        let dag = FdDag::from_history(&h, 2);
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.vertices()[2].k, 2);
        assert!(check_structure(&dag).is_ok());
    }

    #[test]
    fn prefix_truncates_but_keeps_order() {
        let mut dag = FdDag::new(2);
        for i in 0..5u8 {
            dag.add_sample(p(i as usize % 2), i, Time::new(i as u64));
        }
        let pre = dag.prefix(3);
        assert_eq!(pre.len(), 3);
        assert_eq!(pre.vertices()[2].value, 2);
        assert!(check_structure(&pre).is_ok());
        assert_eq!(dag.prefix(99).len(), 5);
    }
}
