//! Undirected graph representation used by every other crate in the workspace.
//!
//! The graph models the point-to-point component of a multimedia network:
//! an arbitrary-topology undirected communication graph `G = (V, E)` with
//! `n = |V|` processors and `m = |E|` bidirectional links.  Links may carry
//! distinct weights (required by the minimum-spanning-tree algorithms of the
//! paper, Sections 3 and 6).
//!
//! # CSR adjacency layout
//!
//! Adjacency is stored in **compressed sparse row** (CSR) form: a flat
//! `(offsets, targets, edge_ids)` triple where node `v`'s incident links are
//! the parallel slices `targets[offsets[v]..offsets[v + 1]]` and
//! `edge_ids[offsets[v]..offsets[v + 1]]`.  Compared to the previous
//! `Vec<Vec<(NodeId, EdgeId)>>` this
//!
//! * performs **O(1) heap allocations** in [`GraphBuilder::build`] regardless
//!   of `n` and `m` (four vectors, enforced by the `graph_alloc`
//!   integration test), and
//! * keeps every traversal cache-friendly: the hot BFS/scatter loops read
//!   only the 4-byte `targets` entries instead of pulling the interleaved
//!   `(NodeId, EdgeId)` pairs through the cache.
//!
//! Both row arrays store **32-bit** indices (the CSR index space is 32-bit,
//! which [`GraphBuilder::new`] enforces): a row entry costs 4 + 4 bytes, not
//! the 8 + 8 of the public `usize`-backed [`NodeId`] / [`EdgeId`] handles.
//! The views convert at the boundary — [`Neighbors::iter`],
//! [`Neighbors::target`] and friends hand out `NodeId` / `EdgeId` — and only
//! the raw-slice accessors ([`Neighbors::targets`], [`Graph::csr`], …)
//! expose the `u32` storage.
//!
//! Each CSR row is ordered by ascending **edge key** `(weight, edge id)`, the
//! globally consistent total order every algorithm in the workspace observes
//! ("scan the ordered list of links and choose the first outgoing one", Step 2
//! of the deterministic partition).  The order is a pure function of the edge
//! list, so rebuilding a graph from the same edges always reproduces the same
//! neighbour iteration order.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Identifier of a node (processor) in the network.
///
/// Node identifiers are dense indices in `0..n`.  The *processor id* used by
/// the algorithms for symmetry breaking (which the paper assumes to be unique
/// and representable in `O(log n)` bits) is carried separately by the
/// simulator so that anonymous or sparse id spaces can be modelled; for the
/// graph substrate the dense index is sufficient.
///
/// # Examples
///
/// ```
/// use netsim_graph::NodeId;
/// let v = NodeId(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Identifier of an undirected edge (link).  Edges are indexed densely in
/// `0..m` in insertion order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the dense index of this edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value)
    }
}

/// Link weight.
///
/// The paper assumes (w.l.o.g.) that link weights are distinct; ties are
/// broken lexicographically by `(weight, edge id)` exactly as in Gallager,
/// Humblet and Spira (1983).  [`Weight`] keeps the raw `u64` weight; the
/// tie-broken total order is provided by [`Graph::edge_key`].
pub type Weight = u64;

/// An undirected edge record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Link weight (used by the MST algorithms; `0` when unweighted).
    pub weight: Weight,
}

impl Edge {
    /// Given one endpoint of the edge, returns the other one.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of the edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x:?} is not an endpoint of edge {self:?}");
        }
    }

    /// Returns `true` if `x` is one of the endpoints.
    #[inline]
    pub fn touches(&self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }
}

/// Row entries [`Neighbors`]' membership scan compares per step: eight
/// `u32`s (256 bits: two SSE2 vector compares, or one AVX2 compare).
const SCAN_LANES: usize = 8;

/// Borrowed view of one node's CSR adjacency row: the parallel `targets` /
/// `edge_ids` slices of its incident links, in ascending edge-key order.
///
/// The view is `Copy` and iterates as `(NodeId, EdgeId)` pairs, so the common
/// loop reads naturally:
///
/// ```
/// use netsim_graph::{generators, NodeId};
/// let g = generators::ring(5);
/// for (neighbor, edge) in g.neighbors(NodeId(0)) {
///     assert!(g.edge(edge).touches(neighbor));
/// }
/// ```
///
/// Hot paths that only need the neighbour nodes should use
/// [`Neighbors::targets`] (or [`Graph::neighbor_targets`]) to stream the flat
/// `u32` node-index slice without touching the edge-id array at all.
#[derive(Clone, Copy, Debug)]
pub struct Neighbors<'a> {
    targets: &'a [u32],
    edge_ids: &'a [u32],
}

impl<'a> Neighbors<'a> {
    /// Builds a view over externally owned parallel slices of node and edge
    /// indices (used by detached simulator windows and tests).
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(targets: &'a [u32], edge_ids: &'a [u32]) -> Self {
        assert_eq!(
            targets.len(),
            edge_ids.len(),
            "parallel CSR slices must have equal length"
        );
        Neighbors { targets, edge_ids }
    }

    /// The empty adjacency row.
    pub fn empty() -> Self {
        Neighbors {
            targets: &[],
            edge_ids: &[],
        }
    }

    /// Number of incident links.
    #[inline]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// `true` when the node has no incident links.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The neighbour nodes' indices, as a flat slice.
    #[inline]
    pub fn targets(&self) -> &'a [u32] {
        self.targets
    }

    /// The incident edges' indices, parallel to [`Neighbors::targets`].
    #[inline]
    pub fn edge_ids(&self) -> &'a [u32] {
        self.edge_ids
    }

    /// The `i`-th `(neighbour, edge id)` pair, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<(NodeId, EdgeId)> {
        Some((
            NodeId(*self.targets.get(i)? as usize),
            EdgeId(*self.edge_ids.get(i)? as usize),
        ))
    }

    /// The `i`-th neighbour node.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn target(&self, i: usize) -> NodeId {
        NodeId(self.targets[i] as usize)
    }

    /// Returns `true` when `v` is among the neighbours.  An id beyond the
    /// 32-bit row space is never one (it is not narrowed into a row entry).
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.position(v).is_some()
    }

    /// Row position of neighbour `v`, if present: the one membership scan.
    ///
    /// The row is compared [`SCAN_LANES`] entries at a time into a hit mask
    /// with no branch per entry (which the compiler turns into one vector
    /// compare), exiting at the first chunk that holds `v`; the short tail
    /// is scanned entry by entry.
    #[inline]
    fn position(&self, v: NodeId) -> Option<usize> {
        let v = u32::try_from(v.index()).ok()?;
        let mut chunks = self.targets.chunks_exact(SCAN_LANES);
        for (c, chunk) in chunks.by_ref().enumerate() {
            let hits = chunk
                .iter()
                .enumerate()
                .fold(0u32, |hits, (i, &t)| hits | u32::from(t == v) << i);
            if hits != 0 {
                return Some(c * SCAN_LANES + hits.trailing_zeros() as usize);
            }
        }
        let tail = self.targets.len() - chunks.remainder().len();
        let at = chunks.remainder().iter().position(|&t| t == v)?;
        Some(tail + at)
    }

    /// Iterator over `(neighbour, edge id)` pairs.
    pub fn iter(&self) -> NeighborsIter<'a> {
        NeighborsIter {
            targets: self.targets.iter(),
            edge_ids: self.edge_ids.iter(),
        }
    }
}

impl<'a> IntoIterator for Neighbors<'a> {
    type Item = (NodeId, EdgeId);
    type IntoIter = NeighborsIter<'a>;
    fn into_iter(self) -> NeighborsIter<'a> {
        self.iter()
    }
}

/// Iterator over the `(NodeId, EdgeId)` pairs of a [`Neighbors`] view.
#[derive(Clone, Debug)]
pub struct NeighborsIter<'a> {
    targets: std::slice::Iter<'a, u32>,
    edge_ids: std::slice::Iter<'a, u32>,
}

impl Iterator for NeighborsIter<'_> {
    type Item = (NodeId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<(NodeId, EdgeId)> {
        let (t, e) = (*self.targets.next()?, *self.edge_ids.next()?);
        Some((NodeId(t as usize), EdgeId(e as usize)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
    }
}

impl ExactSizeIterator for NeighborsIter<'_> {}

impl DoubleEndedIterator for NeighborsIter<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<(NodeId, EdgeId)> {
        let (t, e) = (*self.targets.next_back()?, *self.edge_ids.next_back()?);
        Some((NodeId(t as usize), EdgeId(e as usize)))
    }
}

/// An undirected graph with weighted edges and flat CSR adjacency.
///
/// The structure is immutable once built (see [`GraphBuilder`]); all
/// algorithm state lives outside the graph, which lets many simulated
/// processors share one `&Graph`.
///
/// Adjacency is a flat `(offsets, targets, edge_ids)` compressed-sparse-row
/// triple: node `v`'s incident links are the parallel slices
/// `targets[offsets[v]..offsets[v + 1]]` / `edge_ids[offsets[v]..offsets[v + 1]]`,
/// each row in ascending `(weight, edge id)` key order, every entry a `u32`
/// index.  [`Graph::neighbors`] hands out a [`Neighbors`] view over a row;
/// [`Graph::csr`] exposes the raw triple for bulk consumers.
///
/// # Construction
///
/// The triple is built from the edge list without a global sort, by
/// [`GraphBuilder::build`] (or again by [`Graph::map_weights`]).  Degrees
/// are counted into the offsets, and the edge ids are scattered into their
/// rows in id order, so every row comes out id-ascending.  The rows are
/// then ordered by weight one block of whole rows at a time (up to 4 096
/// half-edges, or one wider row): one pass gathers each entry's weight, id
/// and endpoint XOR from the edge list, so the random reads overlap, and
/// each row is sorted in cache by `(weight, id)` — exactly the order a
/// stable sort by weight gives id-ascending input — and written back as
/// `edge_ids` plus `targets`.  The same pass checks each row for a
/// neighbour listed twice, which is a duplicate edge.  That takes four heap
/// allocations (the offsets, the two CSR arrays, one block buffer), and the
/// result is a pure function of the edge list: the same `add_edge` calls
/// give byte-identical arrays.
///
/// The edge list itself is stored as 16-byte records with `u32` endpoints;
/// [`Graph::edge`], [`Graph::get_edge`] and [`Graph::edges`] hand out the
/// public [`Edge`] by value.
///
/// # Examples
///
/// ```
/// use netsim_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), 5);
/// b.add_edge(NodeId(1), NodeId(2), 2);
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    edges: Vec<StoredEdge>,
    /// CSR row index: node `v`'s incident links live at positions
    /// `offsets[v]..offsets[v + 1]` of `targets` / `edge_ids`; length `n + 1`.
    offsets: Vec<u32>,
    /// Flat neighbour-index array (length `2m`), rows ordered by ascending
    /// edge key.
    targets: Vec<u32>,
    /// Flat incident-edge-index array, parallel to `targets`.
    edge_ids: Vec<u32>,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::from_parts(0, Vec::new())
    }
}

/// One edge as the graph and its builder store it: the endpoints as `u32`
/// indices (the CSR index space is 32-bit), 16 bytes instead of the public
/// [`Edge`]'s 24.  [`Graph::edge`] and friends hand out `Edge` by value.
#[derive(Clone, Copy, Debug)]
struct StoredEdge {
    u: u32,
    v: u32,
    weight: Weight,
}

impl StoredEdge {
    /// The public record.
    #[inline]
    fn edge(self) -> Edge {
        Edge {
            u: NodeId(self.u as usize),
            v: NodeId(self.v as usize),
            weight: self.weight,
        }
    }
}

/// One half-edge as the row pass orders it: the sort key `(weight, id)` and
/// the XOR of the edge's endpoints, which the row's own index turns back
/// into the neighbour.  16 bytes, gathered from the edge list a block at a
/// time.
#[derive(Clone, Copy, Default)]
struct RowEntry {
    weight: Weight,
    id: u32,
    ends: u32,
}

/// Half-edges gathered per block of whole rows: 4 096 entries of 16 bytes
/// (64 KiB), which the row sorts then read from cache.
const BLOCK: usize = 4096;

/// Orders `row` by `(weight, id)` and reports whether two of its entries
/// lead to the same neighbour.  Edge ids are unique, so the unstable sort
/// (in place, allocation-free) yields the one key order.
fn order_row(row: &mut [RowEntry]) -> bool {
    row.sort_unstable_by_key(|e| e.ends);
    let repeats = row.windows(2).any(|w| w[0].ends == w[1].ends);
    row.sort_unstable_by_key(|e| (e.weight, e.id));
    repeats
}

impl Graph {
    /// Builds the CSR triple from an edge list as described under
    /// *Construction* on [`Graph`]: count degrees, scatter the edge ids into
    /// their rows in id order, then order each row by weight a block of rows
    /// at a time, checking it for a repeated neighbour on the way.
    ///
    /// Allocates the offsets (which serve as the row cursors during the
    /// scatter and are shifted back afterwards), the two CSR arrays and one
    /// block buffer of up to `BLOCK` entries, or the widest row — nothing per
    /// node or per edge.
    ///
    /// Endpoints must be in range.
    ///
    /// # Panics
    ///
    /// Panics if two edges join the same pair of nodes, naming the later
    /// one of the first row (in node order) that holds both.
    fn from_parts(n: usize, edges: Vec<StoredEdge>) -> Self {
        let half_edges = edges.len() * 2;
        assert!(
            half_edges < u32::MAX as usize && n < u32::MAX as usize,
            "CSR offsets are 32-bit; graph too large"
        );
        // Degree counting into the row index: after the prefix sum
        // `offsets[v]` is the write cursor of row `v` and `offsets[n]` = 2m.
        let mut offsets = vec![0u32; n + 1];
        for e in &edges {
            offsets[e.u as usize] += 1;
            offsets[e.v as usize] += 1;
        }
        let (mut start, mut widest) = (0, 0);
        for slot in &mut offsets {
            let degree = *slot;
            *slot = start;
            start += degree;
            widest = widest.max(degree as usize);
        }
        // Scatter in id order: every row comes out id-ascending.
        let mut edge_ids = vec![0u32; half_edges];
        for (id, e) in edges.iter().enumerate() {
            for end in [e.u, e.v] {
                let cursor = &mut offsets[end as usize];
                edge_ids[*cursor as usize] = id as u32;
                *cursor += 1;
            }
        }
        // Every cursor now sits on the start of the next row.
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        let mut targets = vec![0u32; half_edges];
        let mut block = vec![RowEntry::default(); BLOCK.min(half_edges).max(widest)];
        let mut first = 0;
        while first < n {
            // Whole rows of at most BLOCK half-edges, or one wider row.
            let base = offsets[first] as usize;
            let mut last = first + 1;
            while last < n && offsets[last + 1] as usize - base <= BLOCK {
                last += 1;
            }
            let span = base..offsets[last] as usize;
            let gathered = &mut block[..span.len()];
            for (entry, &id) in gathered.iter_mut().zip(&edge_ids[span.clone()]) {
                let e = edges[id as usize];
                *entry = RowEntry {
                    weight: e.weight,
                    id,
                    ends: e.u ^ e.v,
                };
            }
            for v in first..last {
                let row = offsets[v] as usize..offsets[v + 1] as usize;
                let entries = &mut gathered[row.start - base..row.end - base];
                if order_row(entries) {
                    reject_repeated_neighbour(entries, &edges);
                }
                for ((entry, id), target) in entries
                    .iter()
                    .zip(&mut edge_ids[row.clone()])
                    .zip(&mut targets[row])
                {
                    *id = entry.id;
                    *target = entry.ends ^ v as u32;
                }
            }
            first = last;
        }
        Graph {
            edges,
            offsets,
            targets,
            edge_ids,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over all edge ids `0..m`.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId)
    }

    /// Iterator over all edge records in id order, each an [`Edge`] by value
    /// (the graph stores 16-byte `u32`-endpoint records and widens them on
    /// the way out).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().map(|e| e.edge())
    }

    /// The edge record for `e`, by value (see [`Graph::edges`]).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.index()].edge()
    }

    /// The edge record for `e` by value, if it exists.
    #[inline]
    pub fn get_edge(&self, e: EdgeId) -> Option<Edge> {
        self.edges.get(e.index()).map(|e| e.edge())
    }

    /// Weight of edge `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.index()].weight
    }

    /// The tie-broken total order key of edge `e`: `(weight, edge index)`.
    ///
    /// The paper assumes distinct weights w.l.o.g.; using the edge index as a
    /// tiebreaker realises that assumption for arbitrary inputs, exactly as in
    /// Gallager–Humblet–Spira.
    #[inline]
    pub fn edge_key(&self, e: EdgeId) -> (Weight, usize) {
        (self.edges[e.index()].weight, e.index())
    }

    /// The CSR range of node `v`'s adjacency row.
    #[inline]
    fn row(&self, v: NodeId) -> (usize, usize) {
        (
            self.offsets[v.index()] as usize,
            self.offsets[v.index() + 1] as usize,
        )
    }

    /// Degree (number of incident links) of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let (a, b) = self.row(v);
        b - a
    }

    /// Neighbours of `v` with the connecting edge ids, in ascending edge-key
    /// order, as a [`Neighbors`] view over the flat CSR arrays.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        let (a, b) = self.row(v);
        Neighbors {
            targets: &self.targets[a..b],
            edge_ids: &self.edge_ids[a..b],
        }
    }

    /// Neighbour node indices of `v` only (no edge ids), in ascending
    /// edge-key order.  The cache-minimal view for traversals.
    #[inline]
    pub fn neighbor_targets(&self, v: NodeId) -> &[u32] {
        let (a, b) = self.row(v);
        &self.targets[a..b]
    }

    /// The raw CSR triple `(offsets, targets, edge_ids)`, every entry a
    /// `u32` index.
    ///
    /// Exposed for bulk consumers (benchmarks, serialisers) that want to walk
    /// the flat arrays directly; everyone else should go through
    /// [`Graph::neighbors`].
    pub fn csr(&self) -> (&[u32], &[u32], &[u32]) {
        (&self.offsets, &self.targets, &self.edge_ids)
    }

    /// Looks up the edge between `u` and `v`, if any (`None` for an id
    /// beyond the 32-bit row space, which no row can hold).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let nbrs = self.neighbors(u);
        nbrs.position(v).map(|i| EdgeId(nbrs.edge_ids[i] as usize))
    }

    /// Returns `true` when `u` and `v` are adjacent.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(v)
    }

    /// Maximum degree Δ of the graph (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Returns a copy of the graph with every weight replaced by the given
    /// function of the edge id and current weight.
    ///
    /// Useful for re-randomising weights over the same topology.
    pub fn map_weights<F: FnMut(EdgeId, Weight) -> Weight>(&self, mut f: F) -> Graph {
        let edges = self
            .edges
            .iter()
            .enumerate()
            .map(|(i, e)| StoredEdge {
                weight: f(EdgeId(i), e.weight),
                ..*e
            })
            .collect();
        Graph::from_parts(self.node_count(), edges)
    }
}

/// Incremental builder for [`Graph`].
///
/// Parallel edges and self loops are rejected, matching the communication
/// graph model of the paper (at most one link between any pair of nodes).
/// Self loops and out-of-range endpoints are rejected at the call that
/// offers them.  Duplicates are detected **online** by the two calls that
/// answer a membership question — [`try_add_edge`](GraphBuilder::try_add_edge)
/// and [`has_edge`](GraphBuilder::has_edge) — whose first use materialises a
/// hash set of the edges added so far and keeps it current from then on.  A
/// builder that is only ever fed through [`add_edge`](GraphBuilder::add_edge)
/// (a generator that cannot produce a duplicate by construction) never hashes
/// anything: its duplicate check is discharged by
/// [`build`](GraphBuilder::build), whose row pass finds a neighbour listed
/// twice in one row, with the same panic.
///
/// [`GraphBuilder::build`] finalises the accumulated edge list into the flat
/// CSR `(offsets, targets, edge_ids)` triple described on [`Graph`]: an
/// id-order scatter into the rows, then each row ordered by the
/// `(weight, edge id)` key a block of rows at a time (see *Construction* on
/// [`Graph`]).  It performs a **constant number of heap allocations** (four
/// vectors: offsets, two CSR arrays and one block buffer) however large the
/// graph is, and the resulting neighbour order is a deterministic function
/// of the edge list: rebuilding from the same `add_edge` calls always yields
/// byte-identical adjacency.
///
/// # Examples
///
/// ```
/// use netsim_graph::{GraphBuilder, NodeId};
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(NodeId(0), NodeId(1), 1);
/// b.add_edge(NodeId(1), NodeId(2), 7);
/// b.add_edge(NodeId(2), NodeId(3), 3);
/// let g = b.build();
/// assert!(g.has_edge(NodeId(2), NodeId(1)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<StoredEdge>,
    /// Packed keys ([`edge_key`]) of the edges added so far, once somebody
    /// has asked a membership question; empty cell until then.  Membership
    /// only — never iterated — so the hasher cannot influence the edge list.
    seen: OnceLock<EdgeSet>,
}

type EdgeSet = HashSet<u64, BuildHasherDefault<EdgeKeyHasher>>;

/// Packs the unordered pair `{u, v}` of in-range node indices (below 2³²,
/// which [`GraphBuilder::new`] enforces) into one duplicate-detection key.
fn edge_key(u: NodeId, v: NodeId) -> u64 {
    let (lo, hi) = (u.index().min(v.index()), u.index().max(v.index()));
    (lo as u64) << 32 | hi as u64
}

/// The panic of every rejected [`GraphBuilder::add_edge`], whenever detected.
fn reject_edge(u: NodeId, v: NodeId) -> ! {
    panic!("invalid or duplicate edge ({u:?}, {v:?})")
}

/// The panic of a row, in key order, that lists a neighbour twice: it names
/// the highest-id edge to the first neighbour that the row, read front to
/// back, lists a second time.
#[cold]
fn reject_repeated_neighbour(row: &[RowEntry], edges: &[StoredEdge]) -> ! {
    let ends = (1..row.len())
        .find(|&j| row[..j].iter().any(|e| e.ends == row[j].ends))
        .map(|j| row[j].ends)
        .expect("the row repeats a neighbour");
    let later = row.iter().filter(|e| e.ends == ends).map(|e| e.id).max();
    let e = edges[later.expect("the row holds the repeat") as usize].edge();
    reject_edge(e.u, e.v)
}

/// Hasher of the builder's duplicate-edge set: one multiply–xorshift round
/// over the packed key.  The keys are node-index pairs produced by this
/// program's own generators, not outside input, so SipHash's flood
/// resistance bought nothing for what was a third of large-graph set-up.
#[derive(Clone, Copy, Debug, Default)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("edge keys hash as a single u64");
    }
    fn write_u64(&mut self, key: u64) {
        let x = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes and no edges.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the 32-bit CSR index space.
    pub fn new(n: usize) -> Self {
        Self::with_edge_capacity(n, 0)
    }

    /// [`GraphBuilder::new`] with room for `edges` edges, for generators
    /// that know their edge count up front.
    pub(crate) fn with_edge_capacity(n: usize, edges: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "CSR offsets are 32-bit; graph too large"
        );
        GraphBuilder {
            n,
            edges: Vec::with_capacity(edges),
            seen: OnceLock::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Neither a self loop nor out of range.
    fn admissible(&self, u: NodeId, v: NodeId) -> bool {
        u != v && u.index() < self.n && v.index() < self.n
    }

    /// The duplicate set, materialised from the edge list on first use.
    ///
    /// # Panics
    ///
    /// Panics if [`add_edge`](GraphBuilder::add_edge) was handed a duplicate
    /// while nobody was looking.
    fn seen(&self) -> &EdgeSet {
        self.seen.get_or_init(|| {
            let mut seen = EdgeSet::with_capacity_and_hasher(self.edges.len(), Default::default());
            for e in self.edges.iter().map(|e| e.edge()) {
                if !seen.insert(edge_key(e.u, e.v)) {
                    reject_edge(e.u, e.v);
                }
            }
            seen
        })
    }

    /// Adds an undirected weighted edge.  Returns the new edge's id, or
    /// `None` if the edge is a self loop, a duplicate, or out of range.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Option<EdgeId> {
        if !self.admissible(u, v) {
            return None;
        }
        self.seen();
        let seen = self.seen.get_mut().expect("materialised just above");
        seen.insert(edge_key(u, v)).then(|| self.push(u, v, weight))
    }

    /// Appends an edge that passed its checks; in-range endpoints are below
    /// 2³² ([`GraphBuilder::new`] enforces it), so narrowing them is exact.
    fn push(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(StoredEdge {
            u: u.index() as u32,
            v: v.index() as u32,
            weight,
        });
        id
    }

    /// Adds an undirected weighted edge.
    ///
    /// # Panics
    ///
    /// Panics on self loops and endpoints out of range, and on duplicate
    /// edges — at this call if the duplicate set exists (see the type-level
    /// docs), otherwise no later than [`build`](GraphBuilder::build).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> EdgeId {
        if !self.admissible(u, v) {
            reject_edge(u, v);
        }
        if let Some(seen) = self.seen.get_mut() {
            if !seen.insert(edge_key(u, v)) {
                reject_edge(u, v);
            }
        }
        self.push(u, v, weight)
    }

    /// Returns `true` if the edge `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.seen().contains(&edge_key(u, v))
    }

    /// Replaces every weight with the given function of the edge id and
    /// current weight, in place — [`Graph::map_weights`] before the graph
    /// exists, so a generator that re-weights finalises once.
    pub(crate) fn map_weights<F: FnMut(EdgeId, Weight) -> Weight>(&mut self, mut f: F) {
        for (i, e) in self.edges.iter_mut().enumerate() {
            e.weight = f(EdgeId(i), e.weight);
        }
    }

    /// Finalises the builder into an immutable [`Graph`] (CSR form; O(1)
    /// allocations — see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if [`add_edge`](GraphBuilder::add_edge) was handed a duplicate
    /// edge that no online check saw.
    pub fn build(self) -> Graph {
        Graph::from_parts(self.n, self.edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 3);
        b.add_edge(NodeId(1), NodeId(2), 1);
        b.add_edge(NodeId(2), NodeId(0), 2);
        b.build()
    }

    #[test]
    fn node_and_edge_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.nodes().count(), 3);
        assert_eq!(g.edge_ids().count(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        assert_eq!(g.max_degree(), 0);
        let d = Graph::default();
        assert!(d.is_empty());
        assert_eq!(d.node_count(), 0);
    }

    #[test]
    fn adjacency_sorted_by_weight() {
        let g = triangle();
        // Node 0 is incident to weight-3 (edge 0) and weight-2 (edge 2) links;
        // the lighter link must come first in the ordered adjacency row.
        let nbrs = g.neighbors(NodeId(0));
        assert_eq!(g.weight(EdgeId(nbrs.edge_ids()[0] as usize)), 2);
        assert_eq!(g.weight(EdgeId(nbrs.edge_ids()[1] as usize)), 3);
    }

    #[test]
    fn csr_rows_are_consistent() {
        let g = triangle();
        let (offsets, targets, edge_ids) = g.csr();
        assert_eq!(offsets.len(), 4);
        assert_eq!(targets.len(), 6);
        assert_eq!(edge_ids.len(), 6);
        assert_eq!(offsets[3] as usize, targets.len());
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            assert_eq!(nbrs.len(), g.degree(v));
            assert_eq!(nbrs.targets(), g.neighbor_targets(v));
            for (i, (w, e)) in nbrs.iter().enumerate() {
                assert_eq!(g.edge(e).other(v), w);
                assert_eq!(nbrs.get(i), Some((w, e)));
                assert_eq!(nbrs.target(i), w);
            }
            assert_eq!(nbrs.get(nbrs.len()), None);
        }
    }

    #[test]
    fn neighbors_view_helpers() {
        let g = triangle();
        let nbrs = g.neighbors(NodeId(1));
        assert!(!nbrs.is_empty());
        assert!(nbrs.contains(NodeId(0)));
        assert!(!nbrs.contains(NodeId(1)));
        let pairs: Vec<(NodeId, EdgeId)> = nbrs.into_iter().collect();
        assert_eq!(pairs.len(), 2);
        let back: Vec<(NodeId, EdgeId)> = nbrs.iter().rev().collect();
        assert_eq!(back.first(), pairs.last());
        assert_eq!(nbrs.iter().len(), 2);
        let empty = Neighbors::empty();
        assert!(empty.is_empty());
        let one = Neighbors::new(&[5], &[9]);
        assert_eq!(one.get(0), Some((NodeId(5), EdgeId(9))));
    }

    #[test]
    fn ids_beyond_the_row_space_are_never_neighbours() {
        // Rows store `u32` indices: an id that only matches a neighbour once
        // truncated to 32 bits must read as a non-neighbour, not alias it.
        let g = triangle();
        let alias = NodeId((1 << 32) | 1);
        assert!(g.neighbors(NodeId(0)).contains(NodeId(1)));
        assert!(!g.neighbors(NodeId(0)).contains(alias));
        assert!(!g.has_edge(NodeId(0), alias));
        assert_eq!(g.find_edge(NodeId(0), alias), None);
        assert!(g.find_edge(NodeId(0), NodeId(1)).is_some());
        assert!(!g.has_edge(NodeId(0), NodeId(usize::MAX)));
    }

    /// The membership scan's oracle: the plain linear scan it replaced.
    fn linear_position(targets: &[u32], v: NodeId) -> Option<usize> {
        let v = u32::try_from(v.index()).ok()?;
        targets.iter().position(|&t| t == v)
    }

    /// Asserts `position` and `contains` agree with the oracle on `row` for
    /// every probe, and for each probe's alias beyond the 32-bit row space.
    fn assert_scan_matches_oracle(
        row: &[u32],
        probes: impl Iterator<Item = u32>,
    ) -> Result<(), String> {
        let edge_ids = vec![0; row.len()];
        let nbrs = Neighbors::new(row, &edge_ids);
        for p in probes {
            for v in [NodeId(p as usize), NodeId(1 << 32 | p as usize)] {
                let expected = linear_position(row, v);
                prop_assert_eq!(nbrs.position(v), expected, "row {:?}, probe {:?}", row, v);
                prop_assert_eq!(nbrs.contains(v), expected.is_some());
            }
        }
        prop_assert_eq!(nbrs.position(NodeId(usize::MAX)), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The chunked scan equals a linear scan on every row length from 0
        /// to 70 (every remainder of the chunk width, repeats included), on
        /// present, absent and beyond-`u32` ids, and on a 3 441-wide row —
        /// the widest hub of the 2^20-node preferential-attachment graph.
        #[test]
        fn membership_scan_matches_a_linear_scan(
            pool in collection::vec(0u32..150, 70..71),
            top in 0u32..150,
            hub_base in 0u32..u32::MAX,
            hub_step in 1u32..1000,
            picks in collection::vec(0usize..3441, 64..65),
        ) {
            // Values near `u32::MAX` too: `top` moves the pool's upper half.
            let pool: Vec<u32> = pool
                .iter()
                .map(|&x| if x >= top { u32::MAX - (x - top) } else { x })
                .collect();
            for len in 0..=pool.len() {
                let probes = (0..150).chain((0..150).map(|x| u32::MAX - x));
                assert_scan_matches_oracle(&pool[..len], probes)?;
            }
            // Distinct entries, as in a real row: the step never wraps past
            // an earlier entry (3 441 · 999 < 2^32).
            let hub: Vec<u32> = (0..3441)
                .map(|i| hub_base.wrapping_add(i * hub_step))
                .collect();
            let probes = picks.iter().chain(&[0, 3433, 3440]).map(|&i| hub[i]);
            assert_scan_matches_oracle(&hub, probes.chain([hub_base.wrapping_sub(1)]))?;
        }
    }

    #[test]
    #[should_panic]
    fn neighbors_new_rejects_length_mismatch() {
        let _ = Neighbors::new(&[1, 2], &[0]);
    }

    #[test]
    fn degrees_and_lookup() {
        let g = triangle();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        let e = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(g.weight(e), 1);
        assert!(g.find_edge(NodeId(0), NodeId(0)).is_none());
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
        assert!(e.touches(NodeId(0)));
        assert!(!e.touches(NodeId(2)));
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        let g = triangle();
        let _ = g.edge(EdgeId(0)).other(NodeId(2));
    }

    #[test]
    fn builder_rejects_self_loop_and_duplicates() {
        let mut b = GraphBuilder::new(3);
        assert!(b.try_add_edge(NodeId(0), NodeId(0), 1).is_none());
        assert!(b.try_add_edge(NodeId(0), NodeId(1), 1).is_some());
        assert!(b.try_add_edge(NodeId(1), NodeId(0), 9).is_none());
        assert!(b.try_add_edge(NodeId(0), NodeId(7), 1).is_none());
        assert!(b.has_edge(NodeId(1), NodeId(0)));
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn edge_key_breaks_ties_by_index() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5);
        b.add_edge(NodeId(1), NodeId(2), 5);
        let g = b.build();
        assert!(g.edge_key(EdgeId(0)) < g.edge_key(EdgeId(1)));
        // Equal weights: node 1's row must list edge 0 before edge 1.
        assert_eq!(g.neighbors(NodeId(1)).edge_ids(), &[0, 1]);
    }

    #[test]
    fn map_weights_preserves_topology() {
        let g = triangle();
        let g2 = g.map_weights(|_, w| w * 10);
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.edge_count(), 3);
        assert!(g2.has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn total_weight_and_max_degree() {
        let g = triangle();
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn stored_edges_and_row_entries_are_16_bytes() {
        assert_eq!(std::mem::size_of::<StoredEdge>(), 16);
        assert_eq!(std::mem::size_of::<RowEntry>(), 16);
    }

    #[test]
    fn display_and_debug_formats() {
        assert_eq!(format!("{}", NodeId(4)), "v4");
        assert_eq!(format!("{:?}", EdgeId(2)), "e2");
        assert_eq!(NodeId::from(7usize), NodeId(7));
        assert_eq!(EdgeId::from(7usize), EdgeId(7));
    }
}
