//! The multi-source line graph (MLG) — §III-B / Definition 2 / Fig. 4.
//!
//! [`MultiSourceLineGraph`] combines the triple line-graph transform
//! with the homologous-group index: every homologous slot's triples
//! form a clique; the whole structure is indexed by entity so per-query
//! extraction touches only the relevant cluster instead of traversing
//! the original graph — the source of the MKA module's 10–100× query
//! acceleration (Table III).

use crate::homologous::{match_homologous_tiered, HomologousGroup, HomologousSets};
use multirag_kg::{
    EntityId, FxHashMap, KnowledgeGraph, LineGraph, RelationId, TieredIndex, TripleId,
};

/// The aggregated multi-source line graph with its slot index.
///
/// # Examples
///
/// ```
/// use multirag_core::MultiSourceLineGraph;
/// use multirag_datasets::flights::FlightsSpec;
///
/// let dataset = FlightsSpec::small().generate(7);
/// let mlg = MultiSourceLineGraph::build(&dataset.graph);
/// let stats = mlg.stats();
/// assert!(stats.groups > 0, "dense flights data must aggregate");
/// // Every homologous group is a clique in the line graph (Fig. 4).
/// assert!(mlg.sets().groups.iter().all(|g| mlg.group_is_clique(g)));
/// ```
#[derive(Debug, Clone)]
pub struct MultiSourceLineGraph {
    /// The underlying triple line graph over the whole knowledge graph.
    line_graph: LineGraph,
    /// Homologous groups + isolated points.
    sets: HomologousSets,
    /// Entity → group indices (into `sets.groups`).
    by_entity: FxHashMap<EntityId, Vec<u32>>,
    /// TripleId → line-graph node position.
    node_of_triple: FxHashMap<TripleId, u32>,
}

impl MultiSourceLineGraph {
    /// Builds the MLG for a knowledge graph: line-graph transform plus
    /// homologous matching and indexing, through a fresh
    /// [`TieredIndex`].
    pub fn build(kg: &KnowledgeGraph) -> Self {
        Self::build_with_index(kg, &TieredIndex::build(kg))
    }

    /// Builds the MLG from a prebuilt [`TieredIndex`] over `kg`:
    /// homologous matching reads the index's slot tier (one pass over
    /// the sorted slot columns, no re-sort).
    pub fn build_with_index(kg: &KnowledgeGraph, index: &TieredIndex) -> Self {
        let line_graph = LineGraph::from_graph(kg);
        let sets = match_homologous_tiered(index);
        let mut by_entity: FxHashMap<EntityId, Vec<u32>> = FxHashMap::default();
        for (gi, group) in sets.groups.iter().enumerate() {
            by_entity.entry(group.entity).or_default().push(gi as u32);
        }
        let node_of_triple: FxHashMap<TripleId, u32> = line_graph
            .triple_ids()
            .iter()
            .enumerate()
            .map(|(pos, &tid)| (tid, pos as u32))
            .collect();
        Self {
            line_graph,
            sets,
            by_entity,
            node_of_triple,
        }
    }

    /// The underlying line graph.
    pub fn line_graph(&self) -> &LineGraph {
        &self.line_graph
    }

    /// All homologous groups and isolated points.
    pub fn sets(&self) -> &HomologousSets {
        &self.sets
    }

    /// Groups anchored at `entity`.
    pub fn groups_of(&self, entity: EntityId) -> Vec<&HomologousGroup> {
        self.by_entity
            .get(&entity)
            .map(|idxs| {
                idxs.iter()
                    .map(|&i| &self.sets.groups[i as usize])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The group of a specific slot.
    pub fn slot_group(&self, entity: EntityId, relation: RelationId) -> Option<&HomologousGroup> {
        self.sets.group_for(entity, relation)
    }

    /// Line-graph node position of a triple.
    pub fn node_of(&self, triple: TripleId) -> Option<u32> {
        self.node_of_triple.get(&triple).copied()
    }

    /// Checks the Fig. 4 structural invariant: a homologous group's
    /// triples must form a clique in the line graph (they all share the
    /// slot's subject entity).
    pub fn group_is_clique(&self, group: &HomologousGroup) -> bool {
        let nodes: Vec<u32> = group
            .triples
            .iter()
            .filter_map(|&tid| self.node_of(tid))
            .collect();
        nodes.len() == group.triples.len() && self.line_graph.is_clique(&nodes)
    }

    /// Number of line-graph nodes.
    pub fn node_count(&self) -> usize {
        self.line_graph.node_count()
    }

    /// Summary statistics for benchmarking.
    pub fn stats(&self) -> MlgStats {
        MlgStats {
            nodes: self.line_graph.node_count(),
            edges: self.line_graph.edge_count(),
            groups: self.sets.groups.len(),
            isolated: self.sets.isolated.len(),
            largest_group: self.sets.groups.iter().map(|g| g.num()).max().unwrap_or(0),
        }
    }
}

/// MLG summary statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlgStats {
    /// Line-graph node count (== triples).
    pub nodes: usize,
    /// Line-graph edge count.
    pub edges: usize,
    /// Homologous group count.
    pub groups: usize,
    /// Isolated triple count.
    pub isolated: usize,
    /// Size of the largest homologous group.
    pub largest_group: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_kg::Value;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let sources: Vec<_> = (0..4)
            .map(|i| kg.add_source(&format!("s{i}"), "json", "flights"))
            .collect();
        let flight = kg.add_entity("CA981", "flights");
        let other = kg.add_entity("CA982", "flights");
        let status = kg.add_relation("status");
        let gate = kg.add_relation("gate");
        for (i, &s) in sources.iter().enumerate() {
            kg.add_triple(flight, status, Value::from(format!("v{i}")), s, 0);
        }
        kg.add_triple(other, gate, Value::Int(3), sources[0], 0);
        kg
    }

    #[test]
    fn build_indexes_groups_by_entity() {
        let kg = sample();
        let mlg = MultiSourceLineGraph::build(&kg);
        let flight = kg.find_entity("CA981", "flights").unwrap();
        let other = kg.find_entity("CA982", "flights").unwrap();
        assert_eq!(mlg.groups_of(flight).len(), 1);
        assert!(mlg.groups_of(other).is_empty());
        assert_eq!(mlg.sets().isolated.len(), 1);
    }

    #[test]
    fn homologous_groups_are_cliques() {
        let kg = sample();
        let mlg = MultiSourceLineGraph::build(&kg);
        for group in &mlg.sets().groups {
            assert!(mlg.group_is_clique(group), "Fig. 4 invariant violated");
        }
    }

    #[test]
    fn fig4_example_is_k4() {
        let kg = sample();
        let mlg = MultiSourceLineGraph::build(&kg);
        let stats = mlg.stats();
        assert_eq!(stats.largest_group, 4);
        // K4 has 6 edges; the isolated gate triple adds none.
        assert_eq!(stats.edges, 6);
        assert_eq!(stats.nodes, 5);
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.isolated, 1);
    }

    #[test]
    fn node_of_covers_every_triple() {
        let kg = sample();
        let mlg = MultiSourceLineGraph::build(&kg);
        for (tid, _) in kg.iter_triples() {
            assert!(mlg.node_of(tid).is_some());
        }
        assert_eq!(mlg.node_count(), kg.triple_count());
    }

    #[test]
    fn slot_group_lookup() {
        let kg = sample();
        let mlg = MultiSourceLineGraph::build(&kg);
        let flight = kg.find_entity("CA981", "flights").unwrap();
        let status = kg.find_relation("status").unwrap();
        let gate = kg.find_relation("gate").unwrap();
        assert!(mlg.slot_group(flight, status).is_some());
        assert!(mlg.slot_group(flight, gate).is_none());
    }

    #[test]
    fn matching_equals_the_sort_oracle() {
        let kg = sample();
        let mlg = MultiSourceLineGraph::build(&kg);
        let oracle = crate::homologous::match_homologous(&kg);
        assert_eq!(mlg.sets().groups, oracle.groups);
        assert_eq!(mlg.sets().isolated, oracle.isolated);
    }

    #[test]
    fn empty_graph_builds_empty_mlg() {
        let kg = KnowledgeGraph::new();
        let mlg = MultiSourceLineGraph::build(&kg);
        let stats = mlg.stats();
        assert_eq!(stats.nodes, 0);
        assert_eq!(stats.groups, 0);
    }
}
