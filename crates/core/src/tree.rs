//! The dependency tree of window versions and consumption groups
//! (paper §3.1, Figs. 3, 4 and 6).
//!
//! Vertices are either *window versions* (with at most one child) or
//! *consumption groups* (with a *completion* edge and an *abandon* edge).
//! The invariants from the paper:
//!
//! * the root is the only version of the oldest unretired window,
//! * all versions reachable via a CG's completion edge suppress that CG's
//!   events; versions on the abandon edge are unaffected,
//! * creating a CG doubles the creator's dependent subtree (the old subtree
//!   becomes the abandon branch, a suppressing copy the completion branch),
//! * resolving a CG drops the losing branch and splices the winner up,
//! * new windows attach fresh versions at every leaf.
//!
//! Additions needed for a working system (the paper describes these
//! operationally): rollback teardown (a rolled-back version's dependent
//! subtree is rebuilt from scratch, since its consumption groups were
//! produced by invalid processing) and root retirement (emitting a finished,
//! confirmed root version and promoting its child).
//!
//! # Lazy completion branches and window attach
//!
//! Creating a CG nominally *doubles* the creator's dependent subtree —
//! O(tree) state cloning per group, which would dominate
//! consumption-heavy workloads (most branches are dropped before ever
//! being scheduled). [`cg_created`](DependencyTree::cg_created) instead
//! installs a single `Lazy` vertex on the completion edge: a thunk whose
//! materialization source is the sibling abandon edge and whose
//! suppressed-set delta is the owning CG's cell. The branch is
//! [materialized](DependencyTree::top_k) — cloned from the *current*
//! abandon-side state, twin cells and all — only when the top-k selection
//! actually schedules it or its group completes; a lazy branch dropped by
//! an abandonment, a rollback teardown or a losing outer branch costs
//! nothing. Cloning from a source that has advanced past the group's
//! events is sound for the same reason any clone survives late group
//! updates: the consistency checks (and the final validation at
//! retirement) detect the overlap and roll the copy back.
//!
//! New windows are deferred the same way: [`new_window`](DependencyTree::new_window)
//! records the window on one `PendingAttach` marker per leaf lineage, and
//! the fresh versions are created only when the selection schedules the
//! lineage or the root retires into it. The paper's full tree (Figs. 3
//! and 4) is this tree with every thunk scheduled.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cg::{CgCell, CgId};
use crate::store::WindowInfo;
use crate::version::{VersionState, WvId};

/// Vertex handle inside the arena.
type NodeId = usize;

#[derive(Debug)]
enum Node {
    Version {
        parent: Option<NodeId>,
        state: Arc<VersionState>,
        child: Option<NodeId>,
        /// Completed consumption groups owned by this version whose splice
        /// found *no* dependent versions to carry the suppression (the
        /// completion edge was empty). Dependent versions created later —
        /// by window attach or chain building — must still suppress these
        /// consumed events, so the facts are inherited into every new
        /// suppressed set derived from this vertex.
        facts: Vec<Arc<CgCell>>,
    },
    Cg {
        parent: Option<NodeId>,
        cell: Arc<CgCell>,
        completion: Option<NodeId>,
        abandon: Option<NodeId>,
    },
    /// An unmaterialized completion branch: stands for "the parent CG's
    /// abandon-side subtree, re-suppressed under the parent's cell". It
    /// carries no state of its own — the materialization source (the
    /// abandon edge) and the suppressed-set delta (the cell) are both read
    /// from the parent CG vertex at materialization time, so creation and
    /// teardown are O(1). `stamp` is a unique id that lets queued top-k
    /// candidates detect arena-slot reuse (a thunk can be freed and its
    /// slot recycled for a *different* thunk while the walk is in
    /// progress — see [`top_k`](DependencyTree::top_k)).
    Lazy { parent: Option<NodeId>, stamp: u64 },
    /// A pending tail of fresh window versions: windows attached to this
    /// leaf lineage (ascending by id) whose versions have not been created
    /// yet. Like `Lazy`, the marker holds no version state — the
    /// suppression context is derived from the parent at materialization
    /// time — so attaching a window to a lineage is O(1) and a marker
    /// dropped with a losing branch costs nothing. Materialized into a
    /// [`fresh_chain`](DependencyTree::fresh_chain) when the top-k
    /// selection schedules the lineage or the root lineage retires into
    /// it. `stamp` is a unique id that lets queued top-k candidates detect
    /// arena-slot reuse.
    PendingAttach {
        parent: Option<NodeId>,
        windows: Vec<Arc<WindowInfo>>,
        stamp: u64,
    },
}

/// Materializes window versions and twin cells for the tree. The splitter
/// implements this to allocate ids and keep metrics; test fixtures provide
/// counters.
pub trait VersionFactory {
    /// Creates a fresh version of `window` (processing starts at the window
    /// start) with the given suppressed set.
    fn fresh(
        &mut self,
        window: &Arc<WindowInfo>,
        suppressed: Vec<Arc<CgCell>>,
    ) -> Arc<VersionState>;

    /// Clones `source`'s processing state into a new version with the given
    /// suppressed set. Every open consumption group of the clone is
    /// replaced, atomically under the source's state lock, by an
    /// independent *twin* cell; the created `(original id, twin)` pairs are
    /// returned so the tree can key the copied group vertices to them.
    ///
    /// Returns `None` when the clone holds an open group outside
    /// `expected_open` — the tree state predates that group (its `CgCreated`
    /// op is still in flight), so the copy must fall back to fresh versions.
    #[allow(clippy::type_complexity)]
    fn clone_of(
        &mut self,
        source: &Arc<VersionState>,
        suppressed: Vec<Arc<CgCell>>,
        expected_open: &[CgId],
    ) -> Option<(Arc<VersionState>, Vec<(CgId, Arc<CgCell>)>)>;
}

/// The dependency tree.
///
/// All mutating operations are driven by the splitter during its maintenance
/// cycle; the tree is not shared across threads.
#[derive(Debug)]
pub struct DependencyTree {
    nodes: Vec<Option<Node>>,
    free: Vec<NodeId>,
    root: Option<NodeId>,
    version_vertex: HashMap<u64, NodeId>,
    cg_vertices: HashMap<CgId, Vec<NodeId>>,
    version_count: usize,
    /// Monotonic stamp source for thunk vertices (lazy branches and
    /// pending-attach markers).
    next_thunk_stamp: u64,
    /// Windows currently recorded on pending-attach markers, summed over
    /// all markers (kept incrementally: the back-pressure check reads it
    /// per ingested event).
    pending_window_count: usize,
    /// Versions created by materializing lazy branches since the last
    /// [`take_lazy_stats`](Self::take_lazy_stats).
    versions_materialized: u64,
    /// Lazy branches discarded unmaterialized since the last
    /// [`take_lazy_stats`](Self::take_lazy_stats) — speculation that cost
    /// nothing.
    lazy_versions_dropped: u64,
}

impl Default for DependencyTree {
    fn default() -> Self {
        Self::new()
    }
}

impl DependencyTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        DependencyTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: None,
            version_vertex: HashMap::new(),
            cg_vertices: HashMap::new(),
            version_count: 0,
            next_thunk_stamp: 0,
            pending_window_count: 0,
            versions_materialized: 0,
            lazy_versions_dropped: 0,
        }
    }

    /// Drains the lazy-materialization counters accumulated since the last
    /// call: `(versions materialized, lazy branches dropped unmaterialized)`.
    /// The splitter flushes these into the shared
    /// [`Metrics`](crate::metrics::Metrics) once per maintenance cycle.
    pub fn take_lazy_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.versions_materialized),
            std::mem::take(&mut self.lazy_versions_dropped),
        )
    }

    /// Number of live window versions — the paper's "tree size" metric
    /// (Fig. 10(f)).
    pub fn version_count(&self) -> usize {
        self.version_count
    }

    /// `true` when no window is live.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The root version (of the oldest unretired window).
    pub fn root_version(&self) -> Option<&Arc<VersionState>> {
        let id = self.root?;
        match self.node(id) {
            Node::Version { state, .. } => Some(state),
            _ => unreachable!("root is always a version"),
        }
    }

    /// `true` if the root version still has an unspliced consumption-group
    /// vertex as child (retirement must wait for its resolution ops).
    pub fn root_blocked_by_cg(&self) -> bool {
        let Some(root) = self.root else { return false };
        let Node::Version { child, .. } = self.node(root) else {
            unreachable!("root is always a version")
        };
        matches!(child.map(|c| self.node(c)), Some(Node::Cg { .. }))
    }

    /// Looks up the version state registered for `wv`.
    pub fn version(&self, wv: WvId) -> Option<&Arc<VersionState>> {
        let &node = self.version_vertex.get(&wv.0)?;
        match self.node(node) {
            Node::Version { state, .. } => Some(state),
            _ => None,
        }
    }

    /// `true` if `id` is an unmaterialized completion branch.
    fn is_lazy(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::Lazy { .. })
    }

    /// `true` if `id` is a pending-attach marker.
    fn is_pending_attach(&self, id: NodeId) -> bool {
        matches!(self.node(id), Node::PendingAttach { .. })
    }

    /// Number of unmaterialized completion branches (diagnostics/tests).
    pub fn lazy_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Some(Node::Lazy { .. })))
            .count()
    }

    /// Number of pending-attach markers (diagnostics/tests).
    pub fn pending_attach_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Some(Node::PendingAttach { .. })))
            .count()
    }

    /// Total windows recorded on pending-attach markers — fresh versions
    /// the lazy attach has not had to create yet (diagnostics/tests).
    pub fn pending_attach_windows(&self) -> usize {
        self.pending_window_count
    }

    /// Speculative load the tree represents: live versions plus the
    /// deferred versions pending-attach markers stand for. This — not
    /// [`version_count`](Self::version_count) alone — is what ingestion
    /// back-pressure must bound: lazy attach keeps the version count
    /// artificially low while windows pile up, and every
    /// completion-driven rebuild spans all of them.
    pub fn speculative_load(&self) -> usize {
        self.version_count + self.pending_window_count
    }

    /// Allocates a fresh lazy completion-branch thunk.
    fn alloc_lazy(&mut self, parent: Option<NodeId>) -> NodeId {
        let stamp = self.next_thunk_stamp;
        self.next_thunk_stamp += 1;
        self.alloc(Node::Lazy { parent, stamp })
    }

    /// Allocates a fresh pending-attach marker holding `windows`.
    fn alloc_attach_marker(
        &mut self,
        parent: Option<NodeId>,
        windows: Vec<Arc<WindowInfo>>,
    ) -> NodeId {
        let stamp = self.next_thunk_stamp;
        self.next_thunk_stamp += 1;
        self.pending_window_count += windows.len();
        self.alloc(Node::PendingAttach {
            parent,
            windows,
            stamp,
        })
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn register_version(&mut self, id: NodeId, state: &Arc<VersionState>) {
        self.version_vertex.insert(state.id().0, id);
        self.version_count += 1;
    }

    fn alloc_version(&mut self, parent: Option<NodeId>, state: Arc<VersionState>) -> NodeId {
        let id = self.alloc(Node::Version {
            parent,
            state: Arc::clone(&state),
            child: None,
            facts: Vec::new(),
        });
        self.register_version(id, &state);
        id
    }

    /// Attaches a newly opened window at every leaf (paper Fig. 4,
    /// `newWindow`). An independent window becomes the root version;
    /// otherwise the window is recorded on one pending-attach marker per
    /// leaf lineage and no version is created yet.
    pub fn new_window(&mut self, window: &Arc<WindowInfo>, f: &mut dyn VersionFactory) {
        match self.root {
            None => {
                // Independent window: single version, no suppression (an
                // empty tree implies no live overlapping window; see the
                // retirement argument in DESIGN.md).
                let state = f.fresh(window, Vec::new());
                let id = self.alloc_version(None, state);
                self.root = Some(id);
            }
            Some(root) => self.attach_recursive(root, window),
        }
    }

    fn attach_recursive(&mut self, node: NodeId, window: &Arc<WindowInfo>) {
        // A lineage that already ends in a pending-attach marker absorbs
        // the window with one push — this is what makes per-window attach
        // O(lineages) pointer work instead of O(leaves) version creation.
        if let Node::PendingAttach { windows, .. } = self.node_mut(node) {
            debug_assert!(windows.last().is_none_or(|w| w.id < window.id));
            windows.push(Arc::clone(window));
            self.pending_window_count += 1;
            return;
        }
        match self.node(node) {
            Node::Version { child, .. } => match child {
                Some(c) => {
                    let c = *c;
                    self.attach_recursive(c, window);
                }
                None => {
                    let id = self.alloc_attach_marker(Some(node), vec![Arc::clone(window)]);
                    let Node::Version { child, .. } = self.node_mut(node) else {
                        unreachable!()
                    };
                    *child = Some(id);
                }
            },
            Node::Cg {
                completion,
                abandon,
                ..
            } => {
                let (completion, abandon) = (*completion, *abandon);
                match completion {
                    // An unmaterialized branch needs no per-window work: its
                    // materialization clones the abandon side, which this
                    // attach extends below.
                    Some(c) if self.is_lazy(c) => {}
                    Some(c) => self.attach_recursive(c, window),
                    None => {
                        // Defer the completion side the same way cg_created
                        // does: a thunk over the abandon edge.
                        let id = self.alloc_lazy(Some(node));
                        let Node::Cg { completion, .. } = self.node_mut(node) else {
                            unreachable!()
                        };
                        *completion = Some(id);
                    }
                }
                match abandon {
                    Some(a) => self.attach_recursive(a, window),
                    None => {
                        let id = self.alloc_attach_marker(Some(node), vec![Arc::clone(window)]);
                        let Node::Cg { abandon, .. } = self.node_mut(node) else {
                            unreachable!()
                        };
                        *abandon = Some(id);
                    }
                }
            }
            Node::Lazy { .. } => unreachable!("attach never descends into lazy vertices"),
            Node::PendingAttach { .. } => unreachable!("handled above"),
        }
    }

    /// Suppression set that applies *above* a CG vertex: the nearest
    /// ancestor version's suppressed set (plus its recorded facts) plus
    /// every completion edge between it and `node` (exclusive of `node`'s
    /// own cell).
    fn suppression_above(&self, node: NodeId) -> Vec<Arc<CgCell>> {
        let mut extra: Vec<Arc<CgCell>> = Vec::new();
        let mut cur = node;
        loop {
            let Some(p) = self.parent_of(cur) else {
                unreachable!("CG vertices always have a version ancestor")
            };
            match self.node(p) {
                Node::Version { state, facts, .. } => {
                    let mut supp = state.suppressed().to_vec();
                    supp.extend(facts.iter().cloned());
                    extra.reverse();
                    supp.extend(extra);
                    return supp;
                }
                Node::Cg {
                    cell, completion, ..
                } => {
                    if *completion == Some(cur) {
                        extra.push(Arc::clone(cell));
                    }
                    cur = p;
                }
                Node::Lazy { .. } | Node::PendingAttach { .. } => {
                    unreachable!("thunk vertices have no children")
                }
            }
        }
    }

    /// Inserts a new consumption group under its creator version
    /// (paper Fig. 4, `consumptionGroupCreated`): the old dependent subtree
    /// becomes the abandon branch; a *modified copy* that suppresses the
    /// group's events becomes the completion branch. The copy is deferred:
    /// the completion edge gets a single lazy thunk, so creation is O(1) in
    /// tree size, and the copy is taken only if the
    /// [top-k selection](Self::top_k) schedules the branch or the group
    /// completes.
    ///
    /// The copy clones each dependent version's processing state — the
    /// paper's intent, since reprocessing every dependent window on each
    /// group creation would erase the speculation win — with one essential
    /// correction: a copied consumption-group vertex cannot share its
    /// original's identity. The copied versions continue the same partial
    /// matches in an *alternative world*, and the two worlds may resolve a
    /// match differently; sharing identity would apply one branch's outcome
    /// to the other (unsound), or leave the copy unresolved forever when the
    /// original's branch is dropped first (deadlock). Every open group
    /// vertex in the copy therefore gets an independent **twin cell** (same
    /// events and completion distance, fresh id), owned and resolved by the
    /// cloned version that continues the match. Retroactive conflicts with
    /// the new group's events are caught by the copies' consistency checks,
    /// exactly as for any late group update (paper Fig. 8).
    ///
    /// Returns `false` (no-op) if the creator version is no longer in the
    /// tree — its subtree was dropped by a concurrent resolution or
    /// rollback, making the operation stale.
    pub fn cg_created(&mut self, creator: WvId, cell: Arc<CgCell>) -> bool {
        let Some(&vnode) = self.version_vertex.get(&creator.0) else {
            return false;
        };
        let Node::Version { child, .. } = self.node(vnode) else {
            unreachable!()
        };
        let old_child = *child;

        let copy = old_child.map(|_| self.alloc_lazy(None));
        let cg_node = self.alloc(Node::Cg {
            parent: Some(vnode),
            cell: Arc::clone(&cell),
            completion: copy,
            abandon: old_child,
        });
        if let Some(c) = copy {
            self.set_parent(c, cg_node);
        }
        if let Some(c) = old_child {
            self.set_parent(c, cg_node);
        }
        let Node::Version { child, .. } = self.node_mut(vnode) else {
            unreachable!()
        };
        *child = Some(cg_node);
        self.cg_vertices.entry(cell.id()).or_default().push(cg_node);
        true
    }

    /// Distinct windows of the versions in `src`'s subtree, ascending by id.
    fn subtree_windows(&self, src: NodeId) -> Vec<Arc<WindowInfo>> {
        let mut windows: Vec<Arc<WindowInfo>> = Vec::new();
        let mut stack = vec![src];
        while let Some(id) = stack.pop() {
            match self.node(id) {
                Node::Version { state, child, .. } => {
                    if !windows.iter().any(|w| w.id == state.window().id) {
                        windows.push(Arc::clone(state.window()));
                    }
                    if let Some(c) = child {
                        stack.push(*c);
                    }
                }
                Node::Cg {
                    completion,
                    abandon,
                    ..
                } => {
                    if let Some(c) = completion {
                        stack.push(*c);
                    }
                    if let Some(a) = abandon {
                        stack.push(*a);
                    }
                }
                // A lazy branch mirrors the sibling abandon edge, whose
                // windows the traversal collects anyway.
                Node::Lazy { .. } => {}
                // Pending-attach windows count: their fresh versions have
                // not been created yet, but the lineage covers them.
                Node::PendingAttach { windows: w, .. } => {
                    for window in w {
                        if !windows.iter().any(|x| x.id == window.id) {
                            windows.push(Arc::clone(window));
                        }
                    }
                }
            }
        }
        windows.sort_by_key(|w| w.id);
        windows
    }

    /// Builds a parentless chain of fresh versions (one per window, in the
    /// given order), all suppressing `suppression`. Returns the chain head.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty.
    fn fresh_chain(
        &mut self,
        windows: &[Arc<WindowInfo>],
        suppression: &[Arc<CgCell>],
        f: &mut dyn VersionFactory,
    ) -> NodeId {
        let mut head: Option<NodeId> = None;
        let mut cur: Option<NodeId> = None;
        for window in windows {
            let state = f.fresh(window, suppression.to_vec());
            let id = self.alloc_version(cur, state);
            if let Some(p) = cur {
                let Node::Version { child, .. } = self.node_mut(p) else {
                    unreachable!("chain links versions only")
                };
                *child = Some(id);
            } else {
                head = Some(id);
            }
            cur = Some(id);
        }
        head.expect("chain must cover at least one window")
    }

    /// Copies `src`'s subtree for the completion branch of `extra`
    /// (see [`cg_created`](Self::cg_created) and
    /// [`materialize`](Self::materialize)). Version state is cloned;
    /// open consumption-group vertices get twin cells (recorded in
    /// `twins`); vertices of groups that already resolved (their splice op
    /// still in flight) are pre-spliced in the copy. A completed-and-empty
    /// vertex pushes its cell into `facts_out`, to be recorded on the
    /// nearest copied ancestor version.
    ///
    /// Returns the copied subtree root, or `None` if nothing remains (the
    /// subtree was a single pre-spliced vertex with an empty winner edge).
    fn copy_stateful(
        &mut self,
        src: NodeId,
        extra: &Arc<CgCell>,
        twins: &mut HashMap<CgId, Arc<CgCell>>,
        f: &mut dyn VersionFactory,
        facts_out: &mut Vec<Arc<CgCell>>,
        inherited: &[Arc<CgCell>],
    ) -> Option<NodeId> {
        match self.node(src) {
            Node::Version {
                state,
                child,
                facts,
                ..
            } => {
                let (state, child, mut new_facts) = (Arc::clone(state), *child, facts.clone());
                // Rewrite the suppressed set: twins replace open groups
                // whose vertices lie inside the copy (recorded by ancestor
                // recursion steps); resolved cells and groups above the
                // creator stay shared. Append the new group last.
                let mut suppressed: Vec<Arc<CgCell>> = state
                    .suppressed()
                    .iter()
                    .map(|c| twins.get(&c.id()).cloned().unwrap_or_else(|| Arc::clone(c)))
                    .collect();
                // Completions inherited from cloned ancestors whose splice
                // ops were lost (the ancestor was dropped with its
                // CgCreated op still in flight; the clone carries the
                // consumed events) must be suppressed here too.
                for cell in inherited {
                    if !suppressed.iter().any(|c| c.id() == cell.id()) {
                        suppressed.push(Arc::clone(cell));
                    }
                }
                suppressed.push(Arc::clone(extra));

                // Groups this version may legitimately hold open: the CG
                // vertex directly below it, if any (its own speculation
                // point).
                let expected_open: Vec<CgId> = match child.map(|c| self.node(c)) {
                    Some(Node::Cg { cell, .. }) => vec![cell.id()],
                    _ => Vec::new(),
                };
                let Some((new_state, new_twins)) =
                    f.clone_of(&state, suppressed.clone(), &expected_open)
                else {
                    // An open group of `state` has no vertex yet (its
                    // CgCreated op is still in flight): the clone would
                    // share ownership of that group. Fall back to fresh
                    // versions for this whole subtree; the speculation
                    // below re-emerges as they reprocess.
                    let windows = self.subtree_windows(src);
                    return Some(self.fresh_chain(&windows, &suppressed, f));
                };
                twins.extend(new_twins);
                // The clone's completed groups stand in its world whether
                // or not the tree ever saw their vertices (the original may
                // be dropped with the CgCreated op still in flight, which
                // stale-drops it). Dependent copies below must suppress
                // them, and windows attached below the clone later must
                // inherit them as facts.
                let clone_completed: Vec<Arc<CgCell>> = new_state.lock().completed_cells.clone();
                let mut inherited_next: Vec<Arc<CgCell>> = inherited.to_vec();
                for cell in &clone_completed {
                    if !inherited_next.iter().any(|c| c.id() == cell.id()) {
                        inherited_next.push(Arc::clone(cell));
                    }
                }
                for cell in &clone_completed {
                    if !new_facts.iter().any(|c| c.id() == cell.id()) {
                        new_facts.push(Arc::clone(cell));
                    }
                }
                let new_id = self.alloc_version(None, new_state);
                if let Some(c) = child {
                    let mut child_facts = Vec::new();
                    if let Some(cc) =
                        self.copy_stateful(c, extra, twins, f, &mut child_facts, &inherited_next)
                    {
                        self.set_parent(cc, new_id);
                        let Node::Version { child, .. } = self.node_mut(new_id) else {
                            unreachable!()
                        };
                        *child = Some(cc);
                    }
                    new_facts.extend(child_facts);
                }
                let Node::Version { facts, .. } = self.node_mut(new_id) else {
                    unreachable!()
                };
                *facts = new_facts;
                Some(new_id)
            }
            Node::Cg {
                cell,
                completion,
                abandon,
                ..
            } => {
                let (cell, completion, abandon) = (Arc::clone(cell), *completion, *abandon);
                let Some(twin) = twins.get(&cell.id()).cloned() else {
                    // The owner's clone (made just above in the recursion)
                    // no longer holds this group open: the owner resolved
                    // it and the splice op is in flight. Pre-apply the
                    // splice in the copy. The status was published under
                    // the owner's state lock before the clone was taken,
                    // so it is visible here.
                    let completed = cell.status() == crate::cg::CgStatus::Completed;
                    debug_assert!(
                        cell.is_resolved(),
                        "un-twinned group vertices are resolved-pending"
                    );
                    let winner = if completed {
                        // A completed group whose own completion branch is
                        // still a thunk: realize it in the *source* tree
                        // first (fresh rebuild, exactly as cg_resolved
                        // will when the in-flight splice op arrives). A
                        // pending-attach marker on the edge materializes
                        // for the same reason — the splice is about to
                        // detach it from the vertex that carries the
                        // group's suppression.
                        match completion {
                            Some(c) if self.is_lazy(c) => self.rebuild_completion_fresh(src, c, f),
                            Some(c) if self.is_pending_attach(c) => {
                                Some(self.materialize_attach(c, f))
                            }
                            other => other,
                        }
                    } else {
                        abandon
                    };
                    return match winner {
                        Some(w) => self.copy_stateful(w, extra, twins, f, facts_out, inherited),
                        None => {
                            if completed {
                                facts_out.push(cell);
                            }
                            None
                        }
                    };
                };
                let new_id = self.alloc(Node::Cg {
                    parent: None,
                    cell: Arc::clone(&twin),
                    completion: None,
                    abandon: None,
                });
                self.cg_vertices.entry(twin.id()).or_default().push(new_id);
                if let Some(c) = completion {
                    // An unmaterialized branch copies as an unmaterialized
                    // branch: the copy's thunk re-suppresses the copy's own
                    // abandon edge under the twin cell — laziness survives
                    // nested group creation.
                    if self.is_lazy(c) {
                        let lz = self.alloc_lazy(Some(new_id));
                        let Node::Cg { completion, .. } = self.node_mut(new_id) else {
                            unreachable!()
                        };
                        *completion = Some(lz);
                    } else {
                        let mut sub_facts = Vec::new();
                        let cc = self.copy_stateful(c, extra, twins, f, &mut sub_facts, inherited);
                        debug_assert!(
                            sub_facts.is_empty(),
                            "edge children are version vertices which keep their own facts"
                        );
                        if let Some(cc) = cc {
                            self.set_parent(cc, new_id);
                            let Node::Cg { completion, .. } = self.node_mut(new_id) else {
                                unreachable!()
                            };
                            *completion = Some(cc);
                        }
                    }
                }
                if let Some(a) = abandon {
                    let mut sub_facts = Vec::new();
                    let ac = self.copy_stateful(a, extra, twins, f, &mut sub_facts, inherited);
                    debug_assert!(sub_facts.is_empty());
                    if let Some(ac) = ac {
                        self.set_parent(ac, new_id);
                        let Node::Cg { abandon, .. } = self.node_mut(new_id) else {
                            unreachable!()
                        };
                        *abandon = Some(ac);
                    }
                }
                Some(new_id)
            }
            Node::Lazy { .. } => unreachable!("lazy vertices are copied at their parent CG edge"),
            // A pending attach copies as a pending attach: the copy's
            // suppression context is derived from its *own* parent chain at
            // materialization time (which carries `extra` and the twins),
            // so nothing but the window list needs to move — laziness
            // survives subtree copies.
            Node::PendingAttach { windows, .. } => {
                let windows = windows.clone();
                Some(self.alloc_attach_marker(None, windows))
            }
        }
    }

    /// Materializes an unmaterialized completion branch: clones the parent
    /// CG's *current* abandon-side subtree via
    /// [`copy_stateful`](Self::copy_stateful), with the parent's cell
    /// appended to every suppressed set, and installs the clone as the
    /// completion edge. Returns the new edge (`None` when the abandon side
    /// holds no versions: the branch materializes to nothing).
    ///
    /// Cloning from the *live* abandon-side state (which may have advanced
    /// past, or even processed, events the group consumed) is sound: the
    /// clone's consistency bookkeeping restarts from scratch, so its first
    /// check — and at the latest the final validation before retirement —
    /// detects any overlap with the suppressed groups and rolls the clone
    /// back, exactly as any clone handles a late group update.
    fn materialize(&mut self, lazy: NodeId, f: &mut dyn VersionFactory) -> Option<NodeId> {
        let Node::Lazy { parent, .. } = self.node(lazy) else {
            unreachable!("materialize takes a lazy vertex")
        };
        let cg = parent.expect("lazy vertices hang off a CG vertex");
        let Node::Cg {
            cell,
            completion,
            abandon,
            ..
        } = self.node(cg)
        else {
            unreachable!("lazy parents are CG vertices")
        };
        debug_assert_eq!(*completion, Some(lazy));
        let (cell, source) = (Arc::clone(cell), *abandon);
        self.nodes[lazy] = None;
        self.free.push(lazy);
        let before = self.version_count;
        let copy = source.and_then(|src| {
            let mut twins = HashMap::new();
            let mut stray_facts = Vec::new();
            let copied = self.copy_stateful(src, &cell, &mut twins, f, &mut stray_facts, &[]);
            // A stray fact can only surface when the source root is itself
            // a resolved-pending CG vertex that pre-spliced to nothing;
            // record it on the nearest ancestor version (the group owner),
            // as cg_resolved does for an empty completion edge.
            if !stray_facts.is_empty() {
                let mut owner = cg;
                loop {
                    match self.node_mut(owner) {
                        Node::Version { facts, .. } => {
                            for cell in stray_facts.drain(..) {
                                if !facts.iter().any(|c| c.id() == cell.id()) {
                                    facts.push(cell);
                                }
                            }
                            break;
                        }
                        Node::Cg { parent, .. }
                        | Node::Lazy { parent, .. }
                        | Node::PendingAttach { parent, .. } => {
                            owner = parent.expect("CG vertices have version ancestors");
                        }
                    }
                }
            }
            copied
        });
        self.versions_materialized += (self.version_count - before) as u64;
        let Node::Cg { completion, .. } = self.node_mut(cg) else {
            unreachable!()
        };
        *completion = copy;
        if let Some(c) = copy {
            self.set_parent(c, cg);
        }
        copy
    }

    /// Replaces the unmaterialized completion branch of `cg_node` with a
    /// chain of *fresh* versions — one per window of the (doomed) abandon
    /// side — suppressing the group's cell on top of the suppression above
    /// the vertex. This is the completion path for branches the scheduler
    /// never chose (see [`cg_resolved`](Self::cg_resolved)): no state is
    /// worth cloning, so none is, and the fresh versions simply reprocess —
    /// the position every viable clone would have rolled back to. Returns
    /// the new completion edge.
    fn rebuild_completion_fresh(
        &mut self,
        cg_node: NodeId,
        lazy: NodeId,
        f: &mut dyn VersionFactory,
    ) -> Option<NodeId> {
        let Node::Cg {
            cell,
            completion,
            abandon,
            ..
        } = self.node(cg_node)
        else {
            unreachable!("rebuild takes a CG vertex")
        };
        debug_assert_eq!(*completion, Some(lazy));
        let (cell, source) = (Arc::clone(cell), *abandon);
        self.nodes[lazy] = None;
        self.free.push(lazy);
        let windows = source.map_or_else(Vec::new, |s| self.subtree_windows(s));
        let head = if windows.is_empty() {
            None
        } else {
            // The lineage suppression is the abandon-side root's own
            // suppressed set: it carries completions accumulated from
            // groups long since resolved (and retired), which the vertex
            // walk above this CG cannot see. Facts recorded *on* dropped
            // subtree versions are their own (now void) completions and
            // must not leak in; facts from live ancestors were folded into
            // the root's suppressed set when it was created.
            let mut suppression = match source.map(|s| self.node(s)) {
                Some(Node::Version { state, .. }) => state.suppressed().to_vec(),
                _ => self.suppression_above(cg_node),
            };
            if !suppression.iter().any(|c| c.id() == cell.id()) {
                suppression.push(cell);
            }
            Some(self.fresh_chain(&windows, &suppression, f))
        };
        let Node::Cg { completion, .. } = self.node_mut(cg_node) else {
            unreachable!()
        };
        *completion = head;
        if let Some(h) = head {
            self.set_parent(h, cg_node);
        }
        head
    }

    /// Materializes the *front* window of a pending-attach marker: creates
    /// one fresh version — suppression derived from the parent at *this*
    /// moment (a parent version's suppressed set plus recorded facts, or
    /// the suppression above a parent CG vertex plus its cell on the
    /// completion edge), exactly what the paper's per-leaf attach would
    /// have accumulated — splices the version into the marker's slot, and
    /// keeps any remaining windows pending *below* the new version. One top-k
    /// pop therefore creates exactly one version; the rest of the lineage
    /// stays thunked until it ranks itself. Returns the new version's
    /// vertex.
    ///
    /// Deriving the suppression at materialization rather than attach time
    /// is equivalent: facts can only be recorded on a version while it has
    /// no dependent subtree (see [`cg_resolved`](Self::cg_resolved)), and a
    /// marker *is* a dependent subtree, so no fact can appear between the
    /// attach and the materialization on the same lineage — and the
    /// remaining windows re-derive from the freshly created version, whose
    /// suppressed set is precisely their per-leaf attach context.
    fn materialize_attach(&mut self, marker: NodeId, f: &mut dyn VersionFactory) -> NodeId {
        let (parent, window, remaining) = match self.node_mut(marker) {
            Node::PendingAttach {
                parent, windows, ..
            } => {
                let window = windows.remove(0);
                (
                    parent.expect("pending-attach markers always have a parent"),
                    window,
                    !windows.is_empty(),
                )
            }
            _ => unreachable!("materialize_attach takes a pending-attach marker"),
        };
        self.pending_window_count -= 1;
        let suppression = match self.node(parent) {
            Node::Version { state, facts, .. } => {
                let mut s = state.suppressed().to_vec();
                s.extend(facts.iter().cloned());
                s
            }
            Node::Cg {
                cell, completion, ..
            } => {
                let on_completion_edge = *completion == Some(marker);
                let cell = Arc::clone(cell);
                let mut s = self.suppression_above(parent);
                if on_completion_edge {
                    s.push(cell);
                }
                s
            }
            Node::Lazy { .. } | Node::PendingAttach { .. } => {
                unreachable!("thunk vertices have no children")
            }
        };
        let state = f.fresh(&window, suppression);
        let vid = self.alloc_version(Some(parent), state);
        if remaining {
            // The marker survives as the new version's child, holding the
            // still-pending tail.
            self.replace_child(parent, marker, vid);
            self.set_parent(marker, vid);
            let Node::Version { child, .. } = self.node_mut(vid) else {
                unreachable!()
            };
            *child = Some(marker);
        } else {
            self.nodes[marker] = None;
            self.free.push(marker);
            self.replace_child(parent, marker, vid);
        }
        vid
    }

    fn set_parent(&mut self, node: NodeId, parent: NodeId) {
        match self.node_mut(node) {
            Node::Version { parent: p, .. }
            | Node::Cg { parent: p, .. }
            | Node::Lazy { parent: p, .. }
            | Node::PendingAttach { parent: p, .. } => *p = Some(parent),
        }
    }

    /// Resolves a consumption group (paper Fig. 4,
    /// `consumptionGroupCompleted` / `Abandoned`): at every vertex of the
    /// group, the losing branch is dropped and the winning branch spliced to
    /// the parent. Returns the number of versions dropped.
    ///
    /// A *completed* group whose completion branch is still a lazy
    /// thunk *rebuilds* it as a chain of fresh versions (one per dependent
    /// window, suppressing the group) instead of cloning the doomed abandon
    /// side: an unscheduled source sits at position 0 (nothing to inherit),
    /// and a scheduled one has processed the very events the completion
    /// just consumed, so its clone would fail the first consistency check
    /// and reset to the window start anyway — the rebuild goes straight to
    /// that state, the same §3.3 reprocess-from-start argument behind
    /// [`rollback_rebuild`](Self::rollback_rebuild). An *abandoned* group's
    /// unmaterialized completion branch is discarded without ever having
    /// cost anything.
    pub fn cg_resolved(&mut self, cg: CgId, completed: bool, f: &mut dyn VersionFactory) -> usize {
        let Some(vertices) = self.cg_vertices.remove(&cg) else {
            return 0;
        };
        let mut dropped = 0;
        for vertex in vertices {
            // The vertex may already be gone: it sat inside the losing
            // branch of another vertex of the same group (or a rollback
            // teardown). Verify it is still this group's vertex.
            let Some(Some(Node::Cg { cell, .. })) = self.nodes.get(vertex) else {
                continue;
            };
            if cell.id() != cg {
                continue;
            }
            if completed {
                let Node::Cg { completion, .. } = self.node(vertex) else {
                    unreachable!()
                };
                if let Some(c) = *completion {
                    if self.is_lazy(c) {
                        self.rebuild_completion_fresh(vertex, c, f);
                    } else if self.is_pending_attach(c) {
                        // The splice is about to detach the winner from
                        // this vertex; materialize the marker while the
                        // group's cell is still on its suppression path.
                        self.materialize_attach(c, f);
                    }
                }
            }
            let Node::Cg {
                parent,
                completion,
                abandon,
                cell,
            } = self.node(vertex)
            else {
                unreachable!()
            };
            let (parent, completion, abandon, cell) =
                (*parent, *completion, *abandon, Arc::clone(cell));
            let (winner, loser) = if completed {
                (completion, abandon)
            } else {
                (abandon, completion)
            };
            if let Some(l) = loser {
                dropped += self.drop_subtree(l);
            }
            // Splice winner up.
            self.nodes[vertex] = None;
            self.free.push(vertex);
            if let Some(w) = winner {
                match parent {
                    Some(p) => {
                        self.replace_child(p, vertex, w);
                        self.set_parent(w, p);
                    }
                    None => {
                        debug_assert_eq!(self.root, Some(vertex));
                        self.set_root(w);
                    }
                }
            } else {
                match parent {
                    Some(p) => {
                        self.replace_child(p, vertex, usize::MAX);
                        // A completion with no dependent versions to carry
                        // the suppression: record the consumed events as a
                        // fact on the owner so later-created dependents
                        // still suppress them.
                        if completed {
                            // Walk up to the nearest version vertex (the
                            // parent may itself be a CG vertex when several
                            // groups of one version are open at once).
                            let mut owner = p;
                            loop {
                                match self.node_mut(owner) {
                                    Node::Version { facts, .. } => {
                                        facts.push(cell);
                                        break;
                                    }
                                    Node::Cg { parent, .. }
                                    | Node::Lazy { parent, .. }
                                    | Node::PendingAttach { parent, .. } => {
                                        owner = parent.expect("CG vertices have version ancestors");
                                    }
                                }
                            }
                        }
                    }
                    None => self.root = None,
                }
            }
        }
        dropped
    }

    fn set_root(&mut self, node: NodeId) {
        match self.node_mut(node) {
            Node::Version { parent, .. } | Node::Cg { parent, .. } => *parent = None,
            Node::Lazy { .. } | Node::PendingAttach { .. } => {
                unreachable!("thunk vertices never become root")
            }
        }
        self.root = Some(node);
    }

    /// Replaces `old` in `parent`'s child slots with `new`
    /// (`new == usize::MAX` clears the slot).
    fn replace_child(&mut self, parent: NodeId, old: NodeId, new: NodeId) {
        let new = if new == usize::MAX { None } else { Some(new) };
        match self.node_mut(parent) {
            Node::Version { child, .. } => {
                if *child == Some(old) {
                    *child = new;
                }
            }
            Node::Cg {
                completion,
                abandon,
                ..
            } => {
                if *completion == Some(old) {
                    *completion = new;
                } else if *abandon == Some(old) {
                    *abandon = new;
                }
            }
            Node::Lazy { .. } | Node::PendingAttach { .. } => {
                unreachable!("thunk vertices have no children")
            }
        }
    }

    /// Drops a whole subtree, marking all contained versions dropped.
    /// Returns the number of versions dropped.
    fn drop_subtree(&mut self, node: NodeId) -> usize {
        let mut dropped = 0;
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            let Some(n) = self.nodes[id].take() else {
                continue;
            };
            self.free.push(id);
            match n {
                Node::Version { state, child, .. } => {
                    state.mark_dropped();
                    self.version_vertex.remove(&state.id().0);
                    self.version_count -= 1;
                    dropped += 1;
                    if let Some(c) = child {
                        stack.push(c);
                    }
                }
                Node::Cg {
                    cell,
                    completion,
                    abandon,
                    ..
                } => {
                    if let Some(v) = self.cg_vertices.get_mut(&cell.id()) {
                        v.retain(|&x| x != id);
                        if v.is_empty() {
                            self.cg_vertices.remove(&cell.id());
                        }
                    }
                    if let Some(c) = completion {
                        stack.push(c);
                    }
                    if let Some(a) = abandon {
                        stack.push(a);
                    }
                }
                Node::Lazy { .. } => {
                    // An unmaterialized branch dies for free: no version
                    // state was ever cloned for it.
                    self.lazy_versions_dropped += 1;
                }
                Node::PendingAttach { windows, .. } => {
                    // Pending windows die for free too: their fresh
                    // versions were never created.
                    self.pending_window_count -= windows.len();
                }
            }
        }
        dropped
    }

    /// Tears down and rebuilds the dependent subtree of a rolled-back
    /// version: all consumption groups the invalid processing produced (and
    /// every version speculating on them) are discarded, and one fresh
    /// version per newer live window is chained below (see DESIGN.md §6).
    ///
    /// `newer_windows` must be the live windows with id greater than the
    /// rolled-back version's window, in ascending id order. Returns the
    /// number of versions dropped.
    /// `carried_facts` are completions that *survive* the rollback — empty
    /// for a reset to the window start, or the completions preceding the
    /// restored checkpoint (their events stay consumed in the restarted
    /// world, so the rebuilt dependents must suppress them).
    pub fn rollback_rebuild(
        &mut self,
        wv: WvId,
        newer_windows: &[Arc<WindowInfo>],
        carried_facts: Vec<Arc<CgCell>>,
        f: &mut dyn VersionFactory,
    ) -> usize {
        let Some(&vnode) = self.version_vertex.get(&wv.0) else {
            return 0;
        };
        let Node::Version { child, state, .. } = self.node(vnode) else {
            unreachable!()
        };
        let old_child = *child;
        let mut suppressed = state.suppressed().to_vec();
        suppressed.extend(carried_facts.iter().cloned());
        let mut dropped = 0;
        if let Some(c) = old_child {
            dropped += self.drop_subtree(c);
        }
        {
            // The version restarts: its previous completions (and any facts
            // they recorded) came from processing that is now invalid —
            // except the carried ones, which the restored state keeps.
            let Node::Version { child, facts, .. } = self.node_mut(vnode) else {
                unreachable!()
            };
            *child = None;
            *facts = carried_facts;
        }
        if !newer_windows.is_empty() {
            let head = self.fresh_chain(newer_windows, &suppressed, f);
            self.set_parent(head, vnode);
            match self.node_mut(vnode) {
                Node::Version { child, .. } => *child = Some(head),
                _ => unreachable!("rollback roots are versions"),
            }
        }
        dropped
    }

    /// `true` if, on `from`'s ancestor chain, the version of `cell`'s
    /// window still *vouches* for the completion: its processing state
    /// holds the completed group. A version whose chain ancestor no longer
    /// vouches assumes a completion that never happened in the surviving
    /// timeline.
    fn completion_vouched(&self, from: NodeId, cell: &CgCell) -> bool {
        let mut cur = Some(from);
        while let Some(id) = cur {
            match self.node(id) {
                Node::Version { state, parent, .. } => {
                    if state.window().id == cell.window_id() {
                        return state
                            .lock()
                            .completed_cells
                            .iter()
                            .any(|c| c.id() == cell.id());
                    }
                    if state.window().id < cell.window_id() {
                        return false;
                    }
                    cur = *parent;
                }
                Node::Cg { parent, .. }
                | Node::Lazy { parent, .. }
                | Node::PendingAttach { parent, .. } => cur = *parent,
            }
        }
        false
    }

    /// Revokes consumption-group completions discarded by a rollback.
    ///
    /// A version that completes a group and *then* rolls back voids the
    /// completion — but the tree may already have spliced the group's
    /// resolution, and state copies made under other branches (see
    /// [`cg_created`](Self::cg_created)) may carry the completion onward as
    /// suppressed sets or recorded facts even though the processing that
    /// produced it never happens in the restarted timeline. The rolled-back
    /// version's own dependent subtree is handled by
    /// [`rollback_rebuild`](Self::rollback_rebuild); this sweep finds the
    /// escapees: every version that still assumes one of the `revoked`
    /// completions (suppressed set or vertex facts) *without* a chain
    /// ancestor that still vouches for it is replaced by a fresh version
    /// with the void groups removed, and its dependents are rebuilt.
    ///
    /// `newer_of` must return the live windows with id greater than the
    /// given window id, ascending. Returns the number of versions dropped.
    pub fn revoke_completions(
        &mut self,
        revoked: &[Arc<CgCell>],
        newer_of: &dyn Fn(u64) -> Vec<Arc<WindowInfo>>,
        f: &mut dyn VersionFactory,
    ) -> usize {
        if revoked.is_empty() {
            return 0;
        }
        // Candidates oldest-window first: replacing an owner rebuilds (and
        // thereby cleans) its dependents, so deeper candidates drop out.
        let mut candidates: Vec<(u64, WvId)> = self
            .version_vertex
            .values()
            .filter_map(|&node| {
                let Some(Some(Node::Version { state, facts, .. })) = self.nodes.get(node) else {
                    return None;
                };
                let involved = state
                    .suppressed()
                    .iter()
                    .chain(facts.iter())
                    .any(|s| revoked.iter().any(|r| r.id() == s.id()));
                involved.then(|| (state.window().id, state.id()))
            })
            .collect();
        candidates.sort_unstable_by_key(|&(w, v)| (w, v.0));

        let mut dropped = 0;
        for (window_id, wv) in candidates {
            let Some(&vnode) = self.version_vertex.get(&wv.0) else {
                continue; // already cleaned by an ancestor's replacement
            };
            let Node::Version { state, facts, .. } = self.node(vnode) else {
                unreachable!()
            };
            let assumed: Vec<Arc<CgCell>> = revoked
                .iter()
                .filter(|r| {
                    state
                        .suppressed()
                        .iter()
                        .chain(facts.iter())
                        .any(|s| s.id() == r.id())
                })
                .cloned()
                .collect();
            let unvouched: Vec<CgId> = assumed
                .iter()
                .filter(|cell| !self.completion_vouched(vnode, cell))
                .map(|cell| cell.id())
                .collect();
            if unvouched.is_empty() {
                continue; // a live ancestor still stands by the completion
            }
            dropped += self.replace_poisoned(wv, &unvouched, &newer_of(window_id), f);
        }
        dropped
    }

    /// Replaces a version that assumes void completions: the version is
    /// dropped and a fresh version of the same window — with the `void`
    /// groups removed from its suppressed set and vertex facts — takes its
    /// place in the tree; its dependent subtree is rebuilt from scratch.
    /// Returns the number of versions dropped (including the replaced one).
    fn replace_poisoned(
        &mut self,
        wv: WvId,
        void: &[CgId],
        newer_windows: &[Arc<WindowInfo>],
        f: &mut dyn VersionFactory,
    ) -> usize {
        let Some(&vnode) = self.version_vertex.get(&wv.0) else {
            return 0;
        };
        let (old_state, old_facts, old_child) = match self.node(vnode) {
            Node::Version {
                state,
                facts,
                child,
                ..
            } => (Arc::clone(state), facts.clone(), *child),
            _ => unreachable!("poisoned candidates are version vertices"),
        };
        let keep = |cells: &[Arc<CgCell>]| -> Vec<Arc<CgCell>> {
            cells
                .iter()
                .filter(|c| !void.contains(&c.id()))
                .cloned()
                .collect()
        };
        let new_suppressed = keep(old_state.suppressed());
        let new_facts = keep(&old_facts);
        let mut dropped = 1; // the replaced version itself
        if let Some(c) = old_child {
            dropped += self.drop_subtree(c);
        }
        old_state.mark_dropped();
        let new_state = f.fresh(old_state.window(), new_suppressed.clone());
        self.version_vertex.remove(&wv.0);
        self.version_vertex.insert(new_state.id().0, vnode);
        {
            let Node::Version {
                state,
                facts,
                child,
                ..
            } = self.node_mut(vnode)
            else {
                unreachable!()
            };
            *state = Arc::clone(&new_state);
            *facts = new_facts.clone();
            *child = None;
        }
        if !newer_windows.is_empty() {
            let mut suppression = new_suppressed;
            suppression.extend(new_facts);
            let head = self.fresh_chain(newer_windows, &suppression, f);
            self.set_parent(head, vnode);
            let Node::Version { child, .. } = self.node_mut(vnode) else {
                unreachable!()
            };
            *child = Some(head);
        }
        dropped
    }

    /// Removes the root version after it was emitted; its child becomes the
    /// new root. A pending-attach child materializes first (the promoted
    /// lineage *is* the surviving chain, and the root must be a real
    /// version), which is why retirement takes the factory.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or the root's child is an unresolved CG
    /// vertex (callers must check [`root_blocked_by_cg`](Self::root_blocked_by_cg)).
    pub fn retire_root(&mut self, f: &mut dyn VersionFactory) -> Arc<VersionState> {
        let root = self.root.expect("tree not empty");
        let pending_child = match self.node(root) {
            Node::Version { child: Some(c), .. } if self.is_pending_attach(*c) => Some(*c),
            Node::Version { .. } => None,
            _ => unreachable!("root is always a version"),
        };
        if let Some(marker) = pending_child {
            self.materialize_attach(marker, f);
        }
        let Some(Node::Version { state, child, .. }) = self.nodes[root].take() else {
            unreachable!("root is always a version")
        };
        self.free.push(root);
        self.version_vertex.remove(&state.id().0);
        self.version_count -= 1;
        match child {
            Some(c) => {
                assert!(
                    matches!(self.node(c), Node::Version { .. }),
                    "root child must be a version at retirement"
                );
                self.set_root(c);
            }
            None => self.root = None,
        }
        state
    }

    /// Selects the k window versions with the highest survival probability
    /// (paper Fig. 6). `prob_of` supplies the completion probability of an
    /// open consumption group.
    ///
    /// Finished versions are traversed but not returned (they need no
    /// instance). The returned list is ordered by decreasing survival
    /// probability.
    ///
    /// This is where lazy completion branches materialize on demand: an
    /// unmaterialized branch competes in the selection heap at its branch
    /// probability, and is cloned only when it actually *pops* within the
    /// top k — i.e. when the predictor ranks it high enough to schedule.
    /// Branches that never rank are never cloned, which is the entire
    /// win of the lazy tree (hence `&mut self` and the factory).
    pub fn top_k(
        &mut self,
        k: usize,
        prob_of: &dyn Fn(&CgCell) -> f64,
        f: &mut dyn VersionFactory,
    ) -> Vec<Arc<VersionState>> {
        self.top_k_scored(k, prob_of, f)
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// [`top_k`](Self::top_k), but each selected version is returned with
    /// the survival probability it was ranked at. A multi-query scheduler
    /// merges the per-tree selections on these scores (a stable sort keeps
    /// each tree's internal order, which is what makes the merged schedule
    /// deterministic).
    pub fn top_k_scored(
        &mut self,
        k: usize,
        prob_of: &dyn Fn(&CgCell) -> f64,
        f: &mut dyn VersionFactory,
    ) -> Vec<(f64, Arc<VersionState>)> {
        let mut unbounded = usize::MAX;
        self.top_k_scored_budgeted(k, prob_of, f, &mut unbounded)
    }

    /// [`top_k_scored`](Self::top_k_scored) under a materialization
    /// budget: each on-demand version creation (a lazy completion branch
    /// or a pending window attach that ranks inside the top k) deducts the
    /// versions it created from `*budget`, and once the budget hits zero
    /// the selection stops materializing *new* state — exhausted
    /// candidates are skipped, their thunks stay in the tree for a later
    /// cycle, and already-live versions keep competing unhindered.
    ///
    /// This is the enforcement point for per-tenant speculation caps
    /// ([`TenantQuota::max_versions`](crate::config::TenantQuota)): the
    /// splitter threads one shared budget through all of a tenant's trees
    /// in a scheduling cycle. A `usize::MAX` budget never reaches zero, so
    /// the unbudgeted selection is byte-for-byte this one. Liveness is
    /// unaffected: completion-driven materialization and the root-retire
    /// attach stay unconditional, so a budget of zero can delay but never
    /// wedge progress.
    pub fn top_k_scored_budgeted(
        &mut self,
        k: usize,
        prob_of: &dyn Fn(&CgCell) -> f64,
        f: &mut dyn VersionFactory,
        budget: &mut usize,
    ) -> Vec<(f64, Arc<VersionState>)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Ordering: survival probability first; ties go to the *earlier
        // window* (it retires first, so finishing it unblocks emission),
        // then to the older vertex for determinism. Each candidate records
        // what it expects its node id to be — a materialization taken
        // while the walk is in progress can free an already-queued lazy
        // vertex (a copy crossing a resolved-pending group rebuilds that
        // group's thunk in the source) and the freed slot may be reused,
        // so a popped entry whose id no longer holds the expected vertex
        // is stale and must be skipped, never interpreted as whatever now
        // occupies the slot.
        enum Expect {
            Version(WvId),
            Lazy(u64),
            Attach(u64),
        }
        struct Cand(f64, Reverse<u64>, Reverse<usize>, NodeId, Expect);
        impl PartialEq for Cand {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == std::cmp::Ordering::Equal
            }
        }
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then_with(|| self.1.cmp(&other.1))
                    .then_with(|| self.2.cmp(&other.2))
            }
        }

        let mut result = Vec::with_capacity(k);
        let mut heap: BinaryHeap<Cand> = BinaryHeap::new();
        let push_candidate = |tree: &Self, heap: &mut BinaryHeap<Cand>, p: f64, n: NodeId| {
            let expect = match tree.node(n) {
                Node::Version { state, .. } => Expect::Version(state.id()),
                Node::Lazy { stamp, .. } => Expect::Lazy(*stamp),
                Node::PendingAttach { stamp, .. } => Expect::Attach(*stamp),
                Node::Cg { .. } => unreachable!("CG vertices are expanded, not queued"),
            };
            heap.push(Cand(
                p,
                Reverse(tree.candidate_window(n)),
                Reverse(n),
                n,
                expect,
            ));
        };
        if let Some(root) = self.root {
            push_candidate(self, &mut heap, 1.0, root);
        }
        while result.len() < k {
            let Some(Cand(prob, _, _, node, expect)) = heap.pop() else {
                break;
            };
            // Stale entry (vertex freed or slot reused since the push)?
            let live = match (&expect, self.nodes.get(node).and_then(Option::as_ref)) {
                (Expect::Version(wv), Some(Node::Version { state, .. })) => state.id() == *wv,
                (Expect::Lazy(s), Some(Node::Lazy { stamp, .. })) => stamp == s,
                (Expect::Attach(s), Some(Node::PendingAttach { stamp, .. })) => stamp == s,
                _ => false,
            };
            if !live {
                continue;
            }
            // A live candidate is a version (schedule it), an
            // unmaterialized branch that just ranked inside the top k
            // (clone it now and let its versions compete), or a pending
            // attach that just ranked (create its fresh chain now and let
            // the head compete).
            let expand = match expect {
                // Materializing arms are budget-gated: an exhausted budget
                // skips the candidate (the thunk survives for a later
                // cycle; nothing schedulable hides below an unmaterialized
                // vertex, so skipping loses no live candidates).
                Expect::Lazy(_) => {
                    if *budget == 0 {
                        continue;
                    }
                    let before = self.version_count;
                    let expand = self.materialize(node, f).map(|c| (prob, c));
                    let created = self.version_count.saturating_sub(before);
                    *budget = budget.saturating_sub(created);
                    expand
                }
                Expect::Attach(_) => {
                    if *budget == 0 {
                        continue;
                    }
                    let before = self.version_count;
                    let expand = Some((prob, self.materialize_attach(node, f)));
                    let created = self.version_count.saturating_sub(before);
                    *budget = budget.saturating_sub(created);
                    expand
                }
                Expect::Version(_) => {
                    let Node::Version { state, child, .. } = self.node(node) else {
                        unreachable!("validated above")
                    };
                    if !state.is_finished() {
                        result.push((prob, Arc::clone(state)));
                    }
                    child.map(|c| (prob, c))
                }
            };
            // Expand downward, resolving CG vertices into their two
            // branches weighted by completion probability; versions and
            // lazy branches become heap candidates.
            let mut stack: Vec<(f64, NodeId)> = Vec::new();
            stack.extend(expand);
            while let Some((p, n)) = stack.pop() {
                match self.node(n) {
                    Node::Version { .. } | Node::Lazy { .. } | Node::PendingAttach { .. } => {
                        push_candidate(self, &mut heap, p, n);
                    }
                    Node::Cg {
                        cell,
                        completion,
                        abandon,
                        ..
                    } => {
                        let pc = prob_of(cell).clamp(0.0, 1.0);
                        if let Some(c) = completion {
                            stack.push((p * pc, *c));
                        }
                        if let Some(a) = abandon {
                            stack.push((p * (1.0 - pc), *a));
                        }
                    }
                }
            }
        }
        result
    }

    /// Tie-break window id of a heap candidate: a version's own window, a
    /// pending attach's first window, or — for an unmaterialized branch —
    /// the first window its materialization source (the sibling abandon
    /// edge) covers.
    fn candidate_window(&self, node: NodeId) -> u64 {
        // Fast path for the overwhelmingly common candidates: no
        // allocation, no traversal (this runs once per heap push per
        // scheduling cycle).
        match self.node(node) {
            Node::Version { state, .. } => return state.window().id,
            Node::PendingAttach { windows, .. } => {
                if let Some(w) = windows.first() {
                    return w.id;
                }
            }
            Node::Lazy { .. } | Node::Cg { .. } => {}
        }
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            match self.node(id) {
                Node::Version { state, .. } => return state.window().id,
                Node::Cg {
                    completion,
                    abandon,
                    ..
                } => {
                    if let Some(c) = completion {
                        stack.push(*c);
                    }
                    if let Some(a) = abandon {
                        stack.push(*a);
                    }
                }
                Node::Lazy { parent, .. } => {
                    let p = parent.expect("lazy vertices hang off a CG vertex");
                    let Node::Cg { abandon, .. } = self.node(p) else {
                        unreachable!()
                    };
                    if let Some(a) = abandon {
                        stack.push(*a);
                    }
                }
                // A pending attach covers its windows in ascending order;
                // the earliest is the tie-break.
                Node::PendingAttach { windows, .. } => {
                    if let Some(w) = windows.first() {
                        return w.id;
                    }
                }
            }
        }
        u64::MAX
    }

    /// Iterates over all live versions (diagnostics and tests).
    pub fn versions(&self) -> Vec<Arc<VersionState>> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Some(Node::Version { state, .. }) => Some(Arc::clone(state)),
                _ => None,
            })
            .collect()
    }

    /// Structural self-check for tests: parent/child links are mutual, the
    /// registry matches the arena, and every version's suppressed set equals
    /// the completion edges on its root path.
    #[doc(hidden)]
    pub fn assert_invariants(&self) {
        let mut seen_versions = 0;
        let mut seen_pending_windows = 0;
        for (id, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            match node {
                Node::Version {
                    parent,
                    state,
                    child,
                    ..
                } => {
                    seen_versions += 1;
                    assert_eq!(self.version_vertex.get(&state.id().0), Some(&id));
                    if let Some(c) = child {
                        self.assert_child_link(id, *c);
                    }
                    if parent.is_none() {
                        assert_eq!(self.root, Some(id));
                    }
                    // suppressed set == completion edges on root path
                    let mut expected: Vec<CgId> = Vec::new();
                    let mut cur = id;
                    while let Some(p) = self.parent_of(cur) {
                        if let Node::Cg {
                            cell, completion, ..
                        } = self.node(p)
                        {
                            if *completion == Some(cur) {
                                expected.push(cell.id());
                            }
                        }
                        cur = p;
                    }
                    let mut actual: Vec<CgId> = state.suppressed().iter().map(|c| c.id()).collect();
                    // the root path may omit suppression inherited from
                    // retired windows: every expected edge must be present.
                    actual.sort();
                    expected.sort();
                    for e in &expected {
                        assert!(
                            actual.contains(e),
                            "version {} missing suppression {e}",
                            state.id()
                        );
                    }
                }
                Node::Cg {
                    parent,
                    cell,
                    completion,
                    abandon,
                } => {
                    assert!(parent.is_some(), "CG vertex cannot be root");
                    assert!(self
                        .cg_vertices
                        .get(&cell.id())
                        .is_some_and(|v| v.contains(&id)));
                    if let Some(c) = completion {
                        self.assert_child_link(id, *c);
                    }
                    if let Some(a) = abandon {
                        self.assert_child_link(id, *a);
                    }
                }
                Node::Lazy { parent, .. } => {
                    let p = parent.expect("lazy vertices hang off a CG vertex");
                    let Node::Cg { completion, .. } = self.node(p) else {
                        panic!("lazy vertex parent must be a CG vertex")
                    };
                    assert_eq!(
                        *completion,
                        Some(id),
                        "lazy vertices sit on completion edges only"
                    );
                }
                Node::PendingAttach {
                    parent, windows, ..
                } => {
                    let p = parent.expect("pending-attach markers always have a parent");
                    let points_back = match self.node(p) {
                        Node::Version { child, .. } => *child == Some(id),
                        Node::Cg {
                            completion,
                            abandon,
                            ..
                        } => *completion == Some(id) || *abandon == Some(id),
                        Node::Lazy { .. } | Node::PendingAttach { .. } => false,
                    };
                    assert!(points_back, "pending-attach parent link is mutual");
                    assert!(!windows.is_empty(), "pending-attach markers hold windows");
                    assert!(
                        windows.windows(2).all(|w| w[0].id < w[1].id),
                        "pending windows accumulate in id order"
                    );
                    seen_pending_windows += windows.len();
                }
            }
        }
        assert_eq!(seen_versions, self.version_count);
        assert_eq!(
            seen_pending_windows, self.pending_window_count,
            "incremental pending-window counter tracks the arena"
        );
    }

    fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        match self.node(node) {
            Node::Version { parent, .. }
            | Node::Cg { parent, .. }
            | Node::Lazy { parent, .. }
            | Node::PendingAttach { parent, .. } => *parent,
        }
    }

    fn assert_child_link(&self, parent: NodeId, child: NodeId) {
        assert_eq!(self.parent_of(child), Some(parent), "broken parent link");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::CgStatus;
    use spectre_query::{Expr, MatchId, Pattern, Query, WindowSpec};

    /// Test factory: sequential ids, no metrics.
    struct TestFactory {
        query: Arc<Query>,
        next_wv: u64,
        next_cg: u64,
    }

    impl VersionFactory for TestFactory {
        fn fresh(
            &mut self,
            window: &Arc<WindowInfo>,
            suppressed: Vec<Arc<CgCell>>,
        ) -> Arc<VersionState> {
            let v = VersionState::new(
                WvId(self.next_wv),
                Arc::clone(window),
                Arc::clone(&self.query),
                suppressed,
            );
            self.next_wv += 1;
            v
        }

        fn clone_of(
            &mut self,
            source: &Arc<VersionState>,
            suppressed: Vec<Arc<CgCell>>,
            expected_open: &[CgId],
        ) -> Option<(Arc<VersionState>, Vec<(CgId, Arc<CgCell>)>)> {
            let id = WvId(self.next_wv);
            self.next_wv += 1;
            let next_cg = &mut self.next_cg;
            let mut mk_twin = |cell: &CgCell| {
                let t = Arc::new(cell.twin(CgId(*next_cg)));
                *next_cg += 1;
                t
            };
            VersionState::clone_speculative(source, id, suppressed, expected_open, &mut mk_twin)
        }
    }

    struct Fixture {
        tree: DependencyTree,
        factory: TestFactory,
        /// Schedule every lineage after each `open_window` / `create_cg`.
        schedule_all: bool,
    }

    impl Fixture {
        /// The paper's view (Figs. 3 and 4): every lazy branch and pending
        /// window is scheduled after each operation, so completion copies
        /// and per-leaf window versions exist as soon as they are implied.
        fn new() -> Self {
            Self::with_schedule(true)
        }

        /// The splitter's view: lazy branches and pending-attach markers
        /// stay unscheduled until the test runs a selection.
        fn lazy() -> Self {
            Self::with_schedule(false)
        }

        fn with_schedule(schedule_all: bool) -> Self {
            let query = Arc::new(
                Query::builder("t")
                    .pattern(Pattern::builder().one("A", Expr::truth()).build().unwrap())
                    .window(WindowSpec::count_sliding(4, 2).unwrap())
                    .build()
                    .unwrap(),
            );
            Fixture {
                tree: DependencyTree::new(),
                factory: TestFactory {
                    query,
                    next_wv: 0,
                    next_cg: 0,
                },
                schedule_all,
            }
        }

        /// Materializes every thunk in the tree.
        fn schedule(&mut self) {
            self.tree.top_k(4096, &|_| 0.5, &mut self.factory);
        }

        /// Opens window `id` and returns its live versions.
        fn open_window(&mut self, id: u64) -> Vec<Arc<VersionState>> {
            let window = Arc::new(WindowInfo::new(id, id * 2, id * 2, id * 2));
            self.tree.new_window(&window, &mut self.factory);
            if self.schedule_all {
                self.schedule();
            }
            self.tree.assert_invariants();
            self.tree
                .versions()
                .into_iter()
                .filter(|v| v.window().id == id)
                .collect()
        }

        fn create_cg(&mut self, creator: &Arc<VersionState>) -> Arc<CgCell> {
            let cell = Arc::new(CgCell::new(
                CgId(self.factory.next_cg),
                creator.window().id,
                1,
            ));
            self.factory.next_cg += 1;
            assert!(self.tree.cg_created(creator.id(), Arc::clone(&cell)));
            if self.schedule_all {
                self.schedule();
            }
            self.tree.assert_invariants();
            cell
        }
    }

    #[test]
    fn independent_window_becomes_root() {
        let mut f = Fixture::new();
        let created = f.open_window(0);
        assert_eq!(created.len(), 1);
        assert_eq!(f.tree.version_count(), 1);
        assert_eq!(f.tree.root_version().unwrap().id(), created[0].id());
        assert!(created[0].suppressed().is_empty());
    }

    #[test]
    fn cg_creation_doubles_dependent_versions() {
        // Paper Fig. 3: w1 with CG, w2 depends.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 1);
        let cg = f.create_cg(&w1);
        // w2 now has two versions: original (abandon) + copy (completion).
        assert_eq!(f.tree.version_count(), 3);
        let versions = f.tree.versions();
        let w2_versions: Vec<_> = versions.iter().filter(|v| v.window().id == 1).collect();
        assert_eq!(w2_versions.len(), 2);
        let suppressing = w2_versions
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1);
    }

    #[test]
    fn revoked_completion_replaces_unvouched_suppressors() {
        // A version completes a group, the tree splices the resolution,
        // and then the version rolls back: the completion is void, and
        // dependents still suppressing it must be replaced — unless the
        // completing version still vouches for it.
        let mut f = Fixture::new();
        let v0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let cell = f.create_cg(&v0);
        // The owning instance completes the group.
        cell.complete();
        v0.lock().completed_cells.push(Arc::clone(&cell));
        let dropped = f.tree.cg_resolved(cell.id(), true, &mut f.factory);
        assert_eq!(dropped, 1, "abandon branch dropped");
        f.tree.assert_invariants();
        let suppressor = |tree: &DependencyTree| {
            tree.versions()
                .into_iter()
                .find(|v| v.window().id == 1)
                .expect("a w1 version exists")
        };
        let w1 = suppressor(&f.tree);
        assert!(w1.suppressed().iter().any(|c| c.id() == cell.id()));

        // While v0's state still holds the completion, it is vouched for:
        // the sweep must not touch anything.
        let newer_of = |_: u64| Vec::new();
        let revoked = vec![Arc::clone(&cell)];
        assert_eq!(
            f.tree
                .revoke_completions(&revoked, &newer_of, &mut f.factory),
            0
        );
        assert_eq!(suppressor(&f.tree).id(), w1.id());

        // v0 rolls back: the completion is discarded and reported revoked.
        let outcome = v0.rollback_state();
        assert!(!outcome.restored_checkpoint);
        assert!(outcome.revoked.iter().any(|c| c.id() == cell.id()));
        let dropped = f
            .tree
            .revoke_completions(&outcome.revoked, &newer_of, &mut f.factory);
        assert_eq!(dropped, 1, "the poisoned w1 version is replaced");
        f.tree.assert_invariants();
        assert!(w1.is_dropped());
        let replacement = suppressor(&f.tree);
        assert_ne!(replacement.id(), w1.id());
        assert!(
            replacement.suppressed().is_empty(),
            "the void group is gone from the replacement's world"
        );
    }

    #[test]
    fn new_window_attaches_at_all_leaves() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let _cg = f.create_cg(&w1);
        // leaves: two w2 versions → two w3 versions.
        let w3 = f.open_window(2);
        assert_eq!(w3.len(), 2);
        assert_eq!(f.tree.version_count(), 5);
    }

    #[test]
    fn new_window_under_leaf_cg_creates_both_branches() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        // CG before any dependent window exists: CG vertex is a leaf.
        let cg = f.create_cg(&w1);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 2);
        let suppressing = w2
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1);
    }

    #[test]
    fn completion_keeps_suppressing_branch() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg = f.create_cg(&w1);
        cg.complete();
        let dropped = f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1);
        assert_eq!(f.tree.version_count(), 2);
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert!(survivor.suppressed().iter().any(|c| c.id() == cg.id()));
    }

    #[test]
    fn abandonment_keeps_original_branch() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2_orig = f.open_window(1).remove(0);
        let cg = f.create_cg(&w1);
        cg.abandon();
        let dropped = f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1);
        // The surviving version is the *original* (it kept its state).
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert_eq!(survivor.id(), w2_orig.id());
        assert!(survivor.suppressed().is_empty());
    }

    #[test]
    fn sequential_cgs_accumulate_suppression() {
        // The runtime's actual lifecycle (max_active = 1): a version's
        // groups are created and resolved one after another; completed
        // suppression accumulates in the surviving dependent versions.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg1 = f.create_cg(&w1);
        assert_eq!(f.tree.version_count(), 3);
        cg1.complete();
        f.tree.cg_resolved(cg1.id(), true, &mut f.factory);
        f.tree.assert_invariants();

        let cg2 = f.create_cg(&w1);
        // Completion chain inherits the cg1 fact from the old child.
        let suppressing_both = f
            .tree
            .versions()
            .iter()
            .filter(|v| v.window().id == 1)
            .filter(|v| {
                let ids: Vec<CgId> = v.suppressed().iter().map(|c| c.id()).collect();
                ids.contains(&cg1.id()) && ids.contains(&cg2.id())
            })
            .count();
        assert_eq!(suppressing_both, 1, "completion branch carries both groups");

        cg2.complete();
        f.tree.cg_resolved(cg2.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 2);
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        let mut ids: Vec<CgId> = survivor.suppressed().iter().map(|c| c.id()).collect();
        ids.sort();
        assert_eq!(ids, vec![cg1.id(), cg2.id()]);
    }

    #[test]
    fn abandoned_then_completed_keeps_only_completed() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg1 = f.create_cg(&w1);
        cg1.abandon();
        f.tree.cg_resolved(cg1.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        let cg2 = f.create_cg(&w1);
        cg2.complete();
        f.tree.cg_resolved(cg2.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        let ids: Vec<CgId> = survivor.suppressed().iter().map(|c| c.id()).collect();
        assert_eq!(ids, vec![cg2.id()]);
    }

    #[test]
    fn completion_without_dependents_is_recorded_as_fact() {
        // A group completes while no dependent window exists; a window
        // opening afterwards must still suppress the consumed events.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 1);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 1);
        assert!(
            w2[0].suppressed().iter().any(|c| c.id() == cg.id()),
            "later window inherits the completed-group fact"
        );
    }

    #[test]
    fn facts_chain_through_later_groups() {
        // cg1 completes with no dependents (fact on w1); cg2 opens; a new
        // window attaching below cg2 must suppress cg1 on *both* edges and
        // cg2 only on the completion edge.
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let cg1 = f.create_cg(&w1);
        cg1.complete();
        f.tree.cg_resolved(cg1.id(), true, &mut f.factory);
        let cg2 = f.create_cg(&w1);
        let w2 = f.open_window(1);
        assert_eq!(w2.len(), 2);
        for v in &w2 {
            assert!(
                v.suppressed().iter().any(|c| c.id() == cg1.id()),
                "fact cg1 applies to every branch"
            );
        }
        let with_cg2 = w2
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg2.id()))
            .count();
        assert_eq!(with_cg2, 1);
    }

    #[test]
    fn dropped_versions_are_flagged() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2_orig = f.open_window(1).remove(0);
        let cg = f.create_cg(&w1);
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        assert!(w2_orig.is_dropped());
    }

    #[test]
    fn retirement_promotes_child() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        let retired = f.tree.retire_root(&mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(retired.id(), w1.id());
        assert_eq!(f.tree.root_version().unwrap().id(), w2.id());
        let last = f.tree.retire_root(&mut f.factory);
        assert_eq!(last.id(), w2.id());
        assert!(f.tree.is_empty());
    }

    #[test]
    fn root_blocked_by_cg_detected() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        assert!(!f.tree.root_blocked_by_cg());
        let cg = f.create_cg(&w1);
        assert!(f.tree.root_blocked_by_cg());
        cg.abandon();
        f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        assert!(!f.tree.root_blocked_by_cg());
    }

    #[test]
    fn top_k_prefers_likely_branches() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg = f.create_cg(&w1);
        // completion probability 0.9 → completion-branch version outranks
        // the abandon-branch version.
        let top = f.tree.top_k(2, &|_c| 0.9, &mut f.factory);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id(), w1.id()); // root first (prob 1.0)
        assert!(top[1].suppressed().iter().any(|c| c.id() == cg.id()));
        let top_low = f.tree.top_k(3, &|_c| 0.1, &mut f.factory);
        assert!(top_low[1].suppressed().is_empty());
        let _ = cg;
    }

    #[test]
    fn top_k_skips_finished_versions() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        w1.mark_finished();
        let top = f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id(), w2.id());
    }

    #[test]
    fn top_k_visits_minimal_vertices_breadth_case() {
        // 50 % probability: SPECTRE explores in breadth (paper §4.2.1).
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let _w3 = f.open_window(2);
        let _cg = f.create_cg(&w1);
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].id(), w1.id());
        // the two w2 versions (each 0.5) come before any w3 version
        assert_eq!(top[1].window().id, 1);
        assert_eq!(top[2].window().id, 1);
    }

    #[test]
    fn rollback_rebuild_resets_subtree() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2_windows: Vec<Arc<WindowInfo>> = vec![
            Arc::new(WindowInfo::new(1, 2, 2, 2)),
            Arc::new(WindowInfo::new(2, 4, 4, 4)),
        ];
        let _w2 = f.open_window(1);
        let _w3 = f.open_window(2);
        let _cg = f.create_cg(&w1);
        assert_eq!(f.tree.version_count(), 5);
        let dropped = f
            .tree
            .rollback_rebuild(w1.id(), &w2_windows, Vec::new(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 4);
        // fresh chain: w1 + one version each of w2, w3
        assert_eq!(f.tree.version_count(), 3);
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 3);
    }

    #[test]
    fn stale_cg_created_is_ignored() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let w2 = f.open_window(1).remove(0);
        // Drop w2's subtree via rollback of w1 (no newer windows recreated).
        f.tree
            .rollback_rebuild(w1.id(), &[], Vec::new(), &mut f.factory);
        assert!(w2.is_dropped());
        // An op from the dropped version arrives late: ignored.
        let cell = Arc::new(CgCell::new(CgId(99), 1, 1));
        assert!(!f.tree.cg_created(w2.id(), cell));
        f.tree.assert_invariants();
    }

    #[test]
    fn lazy_cg_creation_defers_the_clone() {
        // Creating a group allocates a thunk instead of copying the
        // dependent subtree — neither the scheduled w1 version nor the
        // still-pending w2 is copied.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(f.tree.pending_attach_windows(), 1);
        let _cg = f.create_cg(&w1);
        assert_eq!(f.tree.version_count(), 2, "no copy of the w1 version");
        assert_eq!(f.tree.pending_attach_count(), 1, "no copy of the marker");
        assert_eq!(f.tree.lazy_count(), 1);
        assert_eq!(f.tree.take_lazy_stats(), (0, 0));
    }

    #[test]
    fn lazy_branch_dropped_on_abandonment_costs_nothing() {
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let w2_orig = f.tree.top_k(2, &|_c| 0.5, &mut f.factory).remove(1);
        assert_eq!(w2_orig.window().id, 1);
        let cg = f.create_cg(&w1);
        cg.abandon();
        let dropped = f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 0, "the loser branch held no versions");
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(f.tree.lazy_count(), 0);
        assert_eq!(f.tree.take_lazy_stats(), (0, 1), "one free drop");
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert_eq!(survivor.id(), w2_orig.id(), "original kept, never cloned");
    }

    #[test]
    fn lazy_branch_completion_rebuilds_fresh() {
        // A group completing before its branch was ever scheduled: no
        // clone is worth taking (an unscheduled source has no progress, a
        // scheduled one processed the just-consumed events and would roll
        // back), so the winner is rebuilt as fresh suppressing versions.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let w2_orig = f.tree.top_k(2, &|_c| 0.5, &mut f.factory).remove(1);
        assert_eq!(w2_orig.window().id, 1);
        let cg = f.create_cg(&w1);
        cg.complete();
        let dropped = f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1, "the abandon original is dropped");
        assert!(w2_orig.is_dropped());
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(
            f.tree.take_lazy_stats(),
            (0, 0),
            "neither cloned nor dropped: rebuilt fresh"
        );
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert_ne!(survivor.id(), w2_orig.id());
        assert!(survivor.suppressed().iter().any(|c| c.id() == cg.id()));
        assert_eq!(survivor.lock().pos, 0, "reprocesses from the start");
    }

    #[test]
    fn lazy_branch_materializes_when_scheduled() {
        // The predictor ranks the completion branch high: selecting the
        // top k materializes it. Ranked low, it is never cloned.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _w2 = f.open_window(1);
        let cg = f.create_cg(&w1);
        let top = f.tree.top_k(2, &|_c| 0.1, &mut f.factory);
        assert_eq!(top.len(), 2);
        assert!(top[1].suppressed().is_empty(), "abandon branch preferred");
        assert_eq!(f.tree.take_lazy_stats(), (0, 0), "low rank: no clone");
        assert_eq!(f.tree.lazy_count(), 1);

        let top = f.tree.top_k(2, &|_c| 0.9, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 2);
        assert!(
            top[1].suppressed().iter().any(|c| c.id() == cg.id()),
            "high rank: the completion branch materialized and was selected"
        );
        assert_eq!(f.tree.take_lazy_stats(), (1, 0));
        assert_eq!(f.tree.version_count(), 3);
    }

    #[test]
    fn rollback_teardown_drops_unmaterialized_branches() {
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        f.schedule();
        let _ = f.open_window(2);
        let _cg = f.create_cg(&w1);
        assert_eq!(f.tree.lazy_count(), 1);
        assert_eq!(f.tree.pending_attach_windows(), 1);
        let newer = vec![
            Arc::new(WindowInfo::new(1, 2, 2, 2)),
            Arc::new(WindowInfo::new(2, 4, 4, 4)),
        ];
        let dropped = f
            .tree
            .rollback_rebuild(w1.id(), &newer, Vec::new(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1, "only the materialized dependent version");
        assert_eq!(f.tree.lazy_count(), 0);
        assert_eq!(f.tree.pending_attach_count(), 0);
        assert_eq!(f.tree.take_lazy_stats(), (0, 1));
        assert_eq!(f.tree.version_count(), 3, "w1 + rebuilt w2, w3");
    }

    #[test]
    fn revoke_completions_crosses_unmaterialized_vertex() {
        // A void completion is revoked while a *different* group's
        // completion branch is still a thunk: the sweep cleans the
        // materialization source, and a later materialization clones the
        // cleaned world — the lazy vertex itself needs no sweep.
        let mut f = Fixture::lazy();
        let v0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let cg_a = f.create_cg(&v0);
        cg_a.complete();
        v0.lock().completed_cells.push(Arc::clone(&cg_a));
        f.tree.cg_resolved(cg_a.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        // The survivor w1 version suppresses a. Open the next group: its
        // completion branch stays lazy.
        let cg_b = f.create_cg(&v0);
        assert_eq!(f.tree.lazy_count(), 1);
        let poisoned = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert!(poisoned.suppressed().iter().any(|c| c.id() == cg_a.id()));

        // v0 rolls back; its completion of a is void.
        let outcome = v0.rollback_state();
        assert!(outcome.revoked.iter().any(|c| c.id() == cg_a.id()));
        let newer_of = |_: u64| Vec::new();
        let dropped = f
            .tree
            .revoke_completions(&outcome.revoked, &newer_of, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 1, "the poisoned w1 version is replaced");
        assert!(poisoned.is_dropped());
        assert_eq!(f.tree.lazy_count(), 1, "the thunk survives the sweep");

        // b completes: the branch materializes from the *cleaned* source.
        cg_b.complete();
        f.tree.cg_resolved(cg_b.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        let ids: Vec<CgId> = survivor.suppressed().iter().map(|c| c.id()).collect();
        assert!(ids.contains(&cg_b.id()));
        assert!(
            !ids.contains(&cg_a.id()),
            "the void completion never leaks into the late clone"
        );
    }

    #[test]
    fn attach_under_lazy_leaf_cg_defers_completion_version() {
        // A group created before any dependent window exists: a window
        // opening later creates no version on either edge — a marker on
        // the abandon edge and a thunk over it on the completion edge.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        assert_eq!(f.tree.lazy_count(), 0, "no dependents: nothing to defer");
        let w2 = f.open_window(1);
        assert!(w2.is_empty(), "no version on either edge");
        assert_eq!(f.tree.pending_attach_count(), 1);
        assert_eq!(f.tree.lazy_count(), 1);
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        let survivor = f
            .tree
            .versions()
            .into_iter()
            .find(|v| v.window().id == 1)
            .unwrap();
        assert!(survivor.suppressed().iter().any(|c| c.id() == cg.id()));
        assert_eq!(f.tree.take_lazy_stats(), (0, 0), "rebuilt fresh");
    }

    #[test]
    fn nested_branches_stay_lazy_through_materialization() {
        // Materializing an outer branch copies an inner unresolved group's
        // vertex — the inner completion branch must stay a thunk in the
        // copy (under the twin cell), not get cloned transitively.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let w2 = f.tree.top_k(2, &|_c| 0.5, &mut f.factory).remove(1);
        assert_eq!(w2.window().id, 1);
        let cg1 = f.create_cg(&w1); // thunk over the w2 subtree
        let cg2 = f.create_cg(&w2); // leaf CG under the original w2 version

        // Mirror the runtime: the owning version holds its group open, so
        // a clone of it gets an independent twin.
        w2.lock().open_cgs.push((MatchId(0), Arc::clone(&cg2)));
        let _ = f.open_window(2); // below cg2: marker + thunk over it
        assert_eq!(f.tree.lazy_count(), 2);
        assert_eq!(f.tree.pending_attach_count(), 1);
        assert_eq!(f.tree.version_count(), 2);

        // The predictor ranks cg1's completion branch highest: the top-k
        // selection clones it. The clone must carry w2', a twin CG vertex
        // for cg2 and a copy of the w3 marker — and the twin's completion
        // edge must again be a thunk, not a transitively forced clone.
        let top = f.tree.top_k(2, &|_c| 0.95, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 2);
        assert_eq!(f.tree.version_count(), 3, "w1, w2 plus w2'");
        assert_eq!(f.tree.lazy_count(), 2, "inner thunk re-created lazily");
        assert_eq!(f.tree.pending_attach_count(), 2, "w3 copied as a marker");
        let (materialized, lazy_dropped) = f.tree.take_lazy_stats();
        assert_eq!(materialized, 1, "w2' only");
        assert_eq!(lazy_dropped, 0);
        // The scheduled branch head is the w2 clone in the cg1-completed
        // world, holding an open twin in place of cg2.
        let w2_copy = Arc::clone(&top[1]);
        assert_eq!(w2_copy.window().id, 1);
        assert!(w2_copy.suppressed().iter().any(|c| c.id() == cg1.id()));
        {
            let inner = w2_copy.lock();
            assert_eq!(inner.open_cgs.len(), 1);
            assert_ne!(inner.open_cgs[0].1.id(), cg2.id(), "independent twin");
        }

        // cg1 then completes: the already-materialized branch wins as-is,
        // and the abandon side (with the original inner thunk and marker)
        // dies free.
        cg1.complete();
        f.tree.cg_resolved(cg1.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(f.tree.lazy_count(), 1);
        assert_eq!(f.tree.pending_attach_count(), 1);
        assert_eq!(f.tree.take_lazy_stats(), (0, 1));
        for v in f.tree.versions() {
            if v.window().id > 0 {
                assert!(v.suppressed().iter().any(|c| c.id() == cg1.id()));
            }
        }
    }

    #[test]
    fn pending_attach_defers_leaf_versions() {
        // Opening windows records them on one marker per lineage; no
        // version state is created until the lineage is scheduled.
        let mut f = Fixture::lazy();
        let _w0 = f.open_window(0);
        assert_eq!(f.tree.version_count(), 1, "the root is always real");
        let w1 = f.open_window(1);
        assert!(w1.is_empty(), "no eager version for w1");
        assert_eq!(f.tree.pending_attach_count(), 1);
        let w2 = f.open_window(2);
        assert!(w2.is_empty());
        assert_eq!(f.tree.pending_attach_count(), 1, "one marker per lineage");
        assert_eq!(f.tree.pending_attach_windows(), 2);
        assert_eq!(f.tree.version_count(), 1);
    }

    #[test]
    fn pending_attach_materializes_one_version_per_schedule() {
        let mut f = Fixture::lazy();
        let _ = f.open_window(0);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        // k = 2: the root plus exactly one materialized pending window;
        // the third window stays thunked below the new version.
        let top = f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].window().id, 0);
        assert_eq!(top[1].window().id, 1);
        assert_eq!(f.tree.version_count(), 2);
        assert_eq!(f.tree.pending_attach_windows(), 1);
        // k = 3 materializes the tail too.
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 3);
        assert_eq!(top[2].window().id, 2);
        assert_eq!(f.tree.version_count(), 3);
        assert_eq!(f.tree.pending_attach_count(), 0);
    }

    #[test]
    fn retire_materializes_pending_child() {
        let mut f = Fixture::lazy();
        let w0 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        assert_eq!(f.tree.version_count(), 1);
        let retired = f.tree.retire_root(&mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(retired.id(), w0.id());
        let root = f.tree.root_version().expect("w1 promoted");
        assert_eq!(root.window().id, 1);
        assert_eq!(f.tree.pending_attach_count(), 0);
    }

    #[test]
    fn pending_attach_drops_free_with_losing_branch() {
        // Windows pending under a CG's abandon side vanish for free when
        // the group completes and the completion branch (rebuilt fresh)
        // wins — and the rebuilt chain covers the pending windows.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        assert_eq!(f.tree.version_count(), 1, "both dependents still pending");
        cg.complete();
        f.tree.cg_resolved(cg.id(), true, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.pending_attach_count(), 0);
        assert_eq!(f.tree.version_count(), 3, "w1 + rebuilt w2, w3");
        for v in f.tree.versions() {
            if v.window().id > 0 {
                assert!(
                    v.suppressed().iter().any(|c| c.id() == cg.id()),
                    "rebuilt chain suppresses the completed group"
                );
                assert_eq!(v.lock().pos, 0, "fresh, reprocesses from the start");
            }
        }
    }

    #[test]
    fn pending_attach_abandonment_keeps_windows_pending() {
        // An abandoned group splices its abandon side — including a
        // marker — back up without materializing anything.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        let _ = f.open_window(1);
        cg.abandon();
        f.tree.cg_resolved(cg.id(), false, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(f.tree.version_count(), 1, "w2 still pending");
        assert_eq!(f.tree.pending_attach_windows(), 1);
        // Scheduling it later derives a clean suppression context.
        let top = f.tree.top_k(2, &|_c| 0.5, &mut f.factory);
        assert_eq!(top.len(), 2);
        assert!(top[1].suppressed().is_empty());
    }

    #[test]
    fn completion_edge_marker_materializes_with_cell_suppression() {
        // A window attaching under a leaf CG vertex leaves a marker on the
        // abandon edge and a thunk over it on the completion edge.
        // Materializing the thunk copies the marker onto the completion
        // edge, and that marker must pick up the group's cell when it
        // materializes in turn.
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        let created = f.open_window(1);
        assert!(created.is_empty(), "both edges deferred");
        assert_eq!(f.tree.pending_attach_count(), 1);
        assert_eq!(f.tree.lazy_count(), 1);
        let top = f.tree.top_k(3, &|_c| 0.5, &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(top.len(), 3);
        let suppressing = top
            .iter()
            .filter(|v| v.suppressed().iter().any(|c| c.id() == cg.id()))
            .count();
        assert_eq!(suppressing, 1, "completion-side copy suppresses the cell");
        assert_eq!(f.tree.version_count(), 3);
    }

    #[test]
    fn rollback_teardown_drops_pending_windows() {
        let mut f = Fixture::lazy();
        let w1 = f.open_window(0).remove(0);
        let _ = f.open_window(1);
        let _ = f.open_window(2);
        assert_eq!(f.tree.pending_attach_windows(), 2);
        let newer = vec![
            Arc::new(WindowInfo::new(1, 2, 2, 2)),
            Arc::new(WindowInfo::new(2, 4, 4, 4)),
        ];
        let dropped = f
            .tree
            .rollback_rebuild(w1.id(), &newer, Vec::new(), &mut f.factory);
        f.tree.assert_invariants();
        assert_eq!(dropped, 0, "pending windows die free");
        assert_eq!(f.tree.pending_attach_count(), 0);
        assert_eq!(f.tree.version_count(), 3, "rollback rebuilds eagerly");
    }

    #[test]
    fn resolved_cell_status_is_visible_to_predictor_paths() {
        let mut f = Fixture::new();
        let w1 = f.open_window(0).remove(0);
        let cg = f.create_cg(&w1);
        assert_eq!(cg.status(), CgStatus::Open);
        cg.complete();
        assert!(cg.is_resolved());
    }
}
