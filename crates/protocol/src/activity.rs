//! Activity bookkeeping strategies for the count engine.
//!
//! The count engine must know, at every change-point, the total sampling
//! weight of *active* (state-changing) ordered slot pairs — `mass` — plus
//! enough structure to draw one active pair with probability proportional to
//! its weight `c_i · (c_j − [i = j])`. This module isolates that bookkeeping
//! behind the [`Activity`] trait with two implementations:
//!
//! - [`AdjActivity`] (the default, also named [`SparseActivity`] and
//!   [`CompactActivity`]): per-slot rows of active out-/in-neighbors in a
//!   compressed row store ([`CompactAdj`]) — delta-compressed LEB128 lists
//!   for sparse rows, blocked bitsets for dense rows, chosen per row by
//!   occupancy, with a single shared row set when the protocol is
//!   [symmetric](crate::Protocol::is_symmetric) — discovered lazily as
//!   states appear. A count change at slot `t` touches only the rows active
//!   into `t` (`O(deg)` instead of `O(slots)`), changed rows are marked in
//!   a dirty bitset and settled once per change-point at a fixed cost per
//!   row, and conditional pair draws scan 64-row block sums of `row_mass`,
//!   then one block, then one adjacency row: `O(slots / 64 + deg)`.
//! - [`DenseActivity`]: the original engine's bookkeeping — a dense
//!   `slots × slots` pair matrix scanned per count change, a full
//!   `row_mass` refresh per change-point and linear-scan sampling. Kept as
//!   the reference baseline: replaying the same schedule through both
//!   indexes must produce bit-identical runs, and the `backend` bench
//!   measures the per-change-point gap.
//!
//! Discovery itself is also bookkeeping the trait can halve: for symmetric
//! protocols [`Activity::add_slot_symmetric`] derives each mirrored ordered
//! query from its twin, so a new slot costs one protocol call per unordered
//! pair instead of two. [`Activity::add_slot_from_lists`] ingests a slot
//! whose activity is already classified (a warm engine materializing a
//! table-known state; see [`TransitionTable`](crate::TransitionTable))
//! without any protocol calls at all.
//!
//! All pair-weight arithmetic is `u128`, so populations are no longer capped
//! at `u32::MAX` agents (the engine accepts up to `2^63 − 1`).

/// Read-only sampling interface over an activity index, used by
/// [`CountView`](crate::CountView) to answer scheduler queries without
/// exposing the index representation.
pub trait PairSampling {
    /// Whether the ordered slot pair `(i, j)` changes state when it
    /// interacts.
    fn is_active(&self, i: usize, j: usize) -> bool;

    /// Maps the `r`-th unit of active weight to its ordered slot pair:
    /// active pairs are ordered by initiator slot, then responder slot, and
    /// pair `(i, j)` spans `c_i · (c_j − [i = j])` units. Requires
    /// `r < mass`.
    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize);
}

/// Incrementally maintained activity index over the count engine's slots.
///
/// The engine drives implementations through a strict protocol:
/// [`add_slot`](Activity::add_slot) once per newly observed state (counts
/// already extended with a zero entry), [`count_changed`](Activity::count_changed)
/// once per count delta (counts already updated), and
/// [`settle`](Activity::settle) once per change-point after all deltas, which
/// must leave [`mass`](Activity::mass) and [`row_mass`](Activity::row_mass)
/// exact.
pub trait Activity: PairSampling + Default {
    /// Registers the slot `counts.len() - 1` (which must hold zero agents)
    /// and discovers its activity against all existing slots by querying
    /// `active(i, j)` for every ordered pair involving the new slot.
    fn add_slot(&mut self, counts: &[u64], active: impl FnMut(usize, usize) -> bool);

    /// [`add_slot`](Activity::add_slot) for protocols whose activity is
    /// mirror-invariant (`active(i, j) == active(j, i)`, guaranteed by
    /// [`Protocol::is_symmetric`](crate::Protocol::is_symmetric)):
    /// implementations may answer each mirrored ordered query from its twin
    /// instead of calling `active` twice.
    ///
    /// The default wraps `active` in a last-query memo keyed on the
    /// unordered pair. [`add_slot`](Activity::add_slot) implementations
    /// query the two orientations of each pair back-to-back, so the memo
    /// halves the underlying protocol-transition calls without any storage.
    fn add_slot_symmetric(&mut self, counts: &[u64], mut active: impl FnMut(usize, usize) -> bool) {
        let mut memo: Option<((usize, usize), bool)> = None;
        self.add_slot(counts, move |i, j| {
            let key = if i >= j { (i, j) } else { (j, i) };
            if let Some((k, v)) = memo {
                if k == key {
                    return v;
                }
            }
            let v = active(key.0, key.1);
            memo = Some((key, v));
            v
        });
    }

    /// Declares, before any slot exists, that every pair this index will
    /// ever see is mirror-invariant, letting implementations share storage
    /// between out- and in-rows. Sound only for symmetric protocols; the
    /// default does nothing.
    fn declare_symmetric(&mut self) {}

    /// Registers the slot `counts.len() - 1` (which must hold zero agents)
    /// with its activity *already classified*: `out` lists the existing
    /// slots `j` with `(new, j)` active, `ins` the slots `i` with
    /// `(i, new)` active — both strictly ascending, both excluding the
    /// diagonal, which `diag` covers. The warm engine's lazy
    /// materialization uses this to ingest a table-known slot in
    /// `O(deg)` instead of `O(slots)` activity queries.
    ///
    /// The default replays the lists through [`add_slot`](Activity::add_slot)
    /// with a binary-search membership closure — correct for any
    /// implementation; the bundled indexes override it with direct
    /// `O(deg)` appends.
    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        let id = counts.len() - 1;
        self.add_slot(counts, |r, c| {
            if r == c {
                diag
            } else if r == id {
                out.binary_search(&(c as u32)).is_ok()
            } else {
                debug_assert_eq!(c, id, "add_slot queries only pairs involving the new slot");
                ins.binary_search(&(r as u32)).is_ok()
            }
        });
    }

    /// Absorbs a count change of `delta` agents at `slot` (already applied
    /// to `counts`) into the incremental structures, deferring row-mass
    /// settlement to [`settle`](Activity::settle).
    fn count_changed(&mut self, slot: usize, delta: i64);

    /// Recomputes the row masses of every row dirtied since the last call
    /// and restores the `mass`/`row_mass`/sampling invariants.
    fn settle(&mut self, counts: &[u64]);

    /// Total weight of active ordered pairs; zero iff the configuration is
    /// silent.
    fn mass(&self) -> u128;

    /// Per-initiator-slot active weight
    /// `row_mass[i] = c_i · col_in[i] − [active(i, i)] · c_i`.
    fn row_mass(&self) -> &[u128];

    /// Visits the active out-neighbors of slot `i` in ascending order —
    /// the row-export hook used to hand a discovered adjacency to a
    /// [`TransitionTable`](crate::TransitionTable).
    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize));

    /// Visits the active in-neighbors of slot `j` (initiators `i` with
    /// `(i, j)` active) in ascending order — the column-export hook
    /// segment publication uses to build in-row extensions without a
    /// transpose pass.
    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize));

    /// Number of active ordered pairs currently stored.
    fn active_pairs(&self) -> usize;

    /// Heap bytes devoted to pair adjacency — the quantity the compact row
    /// store minimizes. Excludes the per-slot scalar arrays (`col_in`,
    /// `row_mass`, …), which are `O(slots)` for every index.
    fn adjacency_bytes(&self) -> usize;
}

/// Recomputes one row's mass from its count and in-column sum, wrapping,
/// and whether it did not wrap: it wraps only when the diagonal is active
/// but `col_in` misses the row's own count.
#[inline]
fn row_mass_of(count: u64, col_in: u64, diag_active: bool) -> (u128, bool) {
    let c = u128::from(count);
    let (m, under) = (c * u128::from(col_in)).overflowing_sub(if diag_active { c } else { 0 });
    (m, !under)
}

/// `sum − old + new` for a part `old` of `sum`, wrapping, and whether it
/// did not wrap. One add of the two's-complement difference: a shrink must
/// carry out of the top bit and a growth must not.
#[inline]
fn swap_part(sum: u128, old: u128, new: u128) -> (u128, bool) {
    let (next, carry) = sum.overflowing_add(new.wrapping_sub(old));
    (next, carry == (new < old))
}

/// One compressed adjacency row: delta-LEB128 while sparse, a blocked
/// bitset once the varint payload would outgrow one. Every representation
/// iterates in ascending id order, so draws agree bit-for-bit with a plain
/// sorted id list.
#[derive(Debug, Clone)]
enum CompactRow {
    /// Ascending ids as LEB128 varints: the first id absolute, then gaps.
    Sparse { bytes: Vec<u8>, last: u32, len: u32 },
    /// Bitset blocked into `u64` words, indexed by id.
    Dense { blocks: Vec<u64>, len: u32 },
    /// A bitset of ids below 64, held inline: the index's rows while its
    /// slot table fits in one word. [`AdjRows`] never uses it, so the
    /// store's row representations stay as they are.
    Word(u64),
}

/// Appends one LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

impl CompactRow {
    fn new() -> Self {
        CompactRow::Sparse {
            bytes: Vec::new(),
            last: 0,
            len: 0,
        }
    }

    /// Appends `id` (strictly greater than every stored id) and converts to
    /// a bitset when the varint payload would exceed one over `slots`
    /// columns.
    fn push(&mut self, id: u32, slots: usize) {
        match self {
            CompactRow::Sparse { bytes, last, len } => {
                debug_assert!(*len == 0 || id > *last, "row ids must ascend");
                let gap = if *len == 0 { id } else { id - *last };
                push_varint(bytes, gap);
                *last = id;
                *len += 1;
                // Bitset payload is slots/8 bytes; the +8 slack keeps tiny
                // rows from flip-flopping representations. Ids may exceed
                // `slots` (segment extension rows address columns past their
                // own row count), so the block count covers the largest
                // stored id too.
                if bytes.len() > slots / 8 + 8 {
                    let blocks_len = slots.div_ceil(64).max(id as usize / 64 + 1);
                    let mut blocks = vec![0u64; blocks_len];
                    let count = *len;
                    self.walk(|j| {
                        blocks[j as usize / 64] |= 1 << (j % 64);
                        true
                    });
                    *self = CompactRow::Dense { blocks, len: count };
                }
            }
            CompactRow::Word(word) => {
                if id < 64 {
                    *word |= 1 << id;
                } else {
                    // Past one word the row re-enters the varint/bitset
                    // rule, as if it had been a varint row all along.
                    let mut bits = *word;
                    *self = CompactRow::new();
                    while bits != 0 {
                        self.push(bits.trailing_zeros(), slots);
                        bits &= bits - 1;
                    }
                    self.push(id, slots);
                }
            }
            CompactRow::Dense { blocks, len } => {
                let block = id as usize / 64;
                if block >= blocks.len() {
                    blocks.resize(block + 1, 0);
                }
                debug_assert_eq!(blocks[block] >> (id % 64) & 1, 0, "duplicate id");
                blocks[block] |= 1 << (id % 64);
                *len += 1;
            }
        }
    }

    /// Visits stored ids ascending while `f` returns `true`.
    fn walk(&self, mut f: impl FnMut(u32) -> bool) {
        match self {
            CompactRow::Sparse { bytes, len, .. } => {
                let mut iter = bytes.iter();
                let mut cur = 0u32;
                for k in 0..*len {
                    let mut v = 0u32;
                    let mut shift = 0;
                    loop {
                        let byte = *iter.next().expect("varint row truncated");
                        v |= u32::from(byte & 0x7f) << shift;
                        if byte & 0x80 == 0 {
                            break;
                        }
                        shift += 7;
                    }
                    cur = if k == 0 { v } else { cur + v };
                    if !f(cur) {
                        return;
                    }
                }
            }
            CompactRow::Word(word) => {
                let mut bits = *word;
                while bits != 0 {
                    if !f(bits.trailing_zeros()) {
                        return;
                    }
                    bits &= bits - 1;
                }
            }
            CompactRow::Dense { blocks, .. } => {
                for (b, &word) in blocks.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = (b as u32) * 64 + bits.trailing_zeros();
                        if !f(j) {
                            return;
                        }
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    fn contains(&self, id: u32) -> bool {
        match self {
            CompactRow::Sparse { .. } => {
                let mut found = false;
                self.walk(|j| {
                    if j >= id {
                        found = j == id;
                        return false;
                    }
                    true
                });
                found
            }
            CompactRow::Word(word) => id < 64 && word >> id & 1 == 1,
            CompactRow::Dense { blocks, .. } => blocks
                .get(id as usize / 64)
                .is_some_and(|word| word >> (id % 64) & 1 == 1),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CompactRow::Sparse { bytes, .. } => bytes.capacity(),
            CompactRow::Dense { blocks, .. } => blocks.capacity() * 8,
            CompactRow::Word(_) => 0,
        }
    }

    /// Releases append slack — bulk loads call this once per row so the
    /// reported footprint is tight.
    fn shrink(&mut self) {
        match self {
            CompactRow::Sparse { bytes, .. } => bytes.shrink_to_fit(),
            CompactRow::Dense { blocks, .. } => blocks.shrink_to_fit(),
            CompactRow::Word(_) => {}
        }
    }
}

/// A borrowed view of one [`AdjRows`] row in its stored representation,
/// as returned by [`AdjRows::row_repr`] — what the on-disk transition
/// store persists verbatim.
#[derive(Debug, Clone, Copy)]
pub enum RowRepr<'a> {
    /// Delta-LEB128 payload: `len` ascending ids, the first absolute, the
    /// rest strictly positive gaps; `last` is the largest id.
    Sparse {
        /// The raw varint payload.
        payload: &'a [u8],
        /// Largest id in the row (`0` when empty).
        last: u32,
        /// Number of ids encoded.
        len: u32,
    },
    /// Blocked bitset: bit `j` of `blocks[j / 64]` set iff `j` is stored.
    Dense {
        /// The bitset words; trailing all-zero words may be absent.
        blocks: &'a [u64],
        /// Number of bits set.
        len: u32,
    },
}

/// An owned, compressed set of adjacency out-rows — the interchange format
/// between a [`TransitionTable`](crate::TransitionTable) and the activity
/// indexes. Rows use the same per-row representation as [`CompactAdj`]
/// (delta-varint or blocked bitset), so loading a compact index from a
/// table clones ~bytes instead of re-encoding tens of millions of pairs.
#[derive(Debug, Clone, Default)]
pub struct AdjRows {
    rows: Vec<CompactRow>,
    pairs: usize,
}

impl AdjRows {
    /// An empty row set.
    pub fn new() -> Self {
        AdjRows::default()
    }

    /// Number of rows (slots).
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Total active ordered pairs stored.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Appends an empty row.
    pub fn push_slot(&mut self) {
        self.rows.push(CompactRow::new());
    }

    /// Appends `j` to row `i`; `j` must exceed every id already in the row.
    pub fn push(&mut self, i: usize, j: usize) {
        let slots = self.rows.len();
        self.rows[i].push(j as u32, slots);
        self.pairs += 1;
    }

    /// Visits row `i` ascending while `f` returns `true`.
    pub fn walk(&self, i: usize, mut f: impl FnMut(usize) -> bool) {
        self.rows[i].walk(|j| f(j as usize));
    }

    /// Adopts row `i` wholesale from its delta-LEB128 payload: `count`
    /// ascending ids, the first absolute, the rest strictly positive gaps,
    /// the largest being `last` — exactly the per-row encoding the on-disk
    /// transition store persists. The densification policy matches
    /// incremental [`push`](Self::push)es (the choice depends only on the
    /// final payload length, which grows monotonically), so bulk loads
    /// build representation-identical rows while skipping the per-id
    /// re-encode — the store loader's fast path.
    ///
    /// The caller is responsible for the payload invariants (the store
    /// loader validates them during its decode pass); each varint must
    /// span at most 5 bytes so ids stay within `u32`. A malformed payload
    /// corrupts this row's iteration, never memory safety. The row must
    /// still be empty.
    pub fn set_row_varint(&mut self, i: usize, count: u32, last: u32, payload: &[u8]) {
        let slots = self.rows.len();
        debug_assert_eq!(self.rows[i].bytes(), 0, "row {i} must be empty");
        self.pairs += count as usize;
        let row = CompactRow::Sparse {
            bytes: payload.to_vec(),
            last,
            len: count,
        };
        self.rows[i] = if count > 0 && payload.len() > slots / 8 + 8 {
            let mut blocks = vec![0u64; slots.div_ceil(64)];
            row.walk(|j| {
                blocks[j as usize / 64] |= 1 << (j % 64);
                true
            });
            CompactRow::Dense { blocks, len: count }
        } else {
            row
        };
    }

    /// Adopts row `i` wholesale as a blocked bitset: bit `j` of
    /// `blocks[j / 64]` set iff pair `(i, j)` is active, `len` bits set in
    /// total. This is the store loader's fast path for dense rows — a
    /// straight word copy instead of tens of thousands of varint decodes.
    /// The caller validates the bits (none at or beyond
    /// [`slots`](Self::slots), popcount equal to `len`); the row must still
    /// be empty.
    pub fn set_row_dense(&mut self, i: usize, blocks: Vec<u64>, len: u32) {
        debug_assert_eq!(self.rows[i].bytes(), 0, "row {i} must be empty");
        debug_assert_eq!(
            blocks.iter().map(|w| w.count_ones()).sum::<u32>(),
            len,
            "row {i}: popcount disagrees with len"
        );
        self.pairs += len as usize;
        self.rows[i] = CompactRow::Dense { blocks, len };
    }

    /// Borrows row `i`'s stored representation — the zero-copy view
    /// [`save`](crate::transition_store::save) persists. Which variant a
    /// row uses is a pure function of its contents (see
    /// [`set_row_varint`](Self::set_row_varint)), so equal row sets expose
    /// equal representations.
    pub fn row_repr(&self, i: usize) -> RowRepr<'_> {
        match &self.rows[i] {
            CompactRow::Sparse { bytes, last, len } => RowRepr::Sparse {
                payload: bytes,
                last: *last,
                len: *len,
            },
            CompactRow::Dense { blocks, len } => RowRepr::Dense { blocks, len: *len },
            CompactRow::Word(_) => unreachable!("row sets never hold one-word rows"),
        }
    }

    /// Whether row `i` contains `j`.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.rows[i].contains(j as u32)
    }

    /// Builds rows from a generator: `f(i, push)` must call `push(j)` for
    /// every active `(i, j)` in ascending `j`.
    pub fn from_fn(slots: usize, f: impl Fn(usize, &mut dyn FnMut(usize))) -> Self {
        let mut rows = AdjRows::new();
        for _ in 0..slots {
            rows.push_slot();
        }
        for i in 0..slots {
            f(i, &mut |j| rows.push(i, j));
        }
        rows
    }

    /// Expands to plain sorted id vectors (tests and table dumps).
    pub fn to_vecs(&self) -> Vec<Vec<u32>> {
        self.rows
            .iter()
            .map(|row| {
                let mut v = Vec::new();
                row.walk(|j| {
                    v.push(j);
                    true
                });
                v
            })
            .collect()
    }

    /// Heap bytes of row payload.
    pub fn bytes(&self) -> usize {
        self.rows.iter().map(CompactRow::bytes).sum()
    }

    /// The transposed row set: row `j` of the result holds every `i` with
    /// `(i, j)` stored here. One decode pass; rows of the result are built
    /// in ascending order because the outer walk ascends.
    pub fn transpose(&self) -> AdjRows {
        let slots = self.slots();
        let mut out = AdjRows::new();
        for _ in 0..slots {
            out.push_slot();
        }
        for i in 0..slots {
            self.walk(i, |j| {
                out.push(j, i);
                true
            });
        }
        for row in &mut out.rows {
            row.shrink();
        }
        out
    }
}

/// Compressed per-row adjacency store behind [`AdjActivity`]: which slots
/// are active against which, in both orientations, rows ascending.
/// Delta-LEB128 lists hold sparse rows and blocked bitsets dense rows
/// (chosen per row by payload size). Once the adjacency is declared
/// symmetric a single row set serves both orientations: in-rows then *are*
/// the out-rows, since a symmetric activity matrix equals its transpose.
///
/// Pairs arrive during discovery always involving the newest slot, with the
/// other endpoint ascending per direction, so rows are only ever appended
/// to.
#[derive(Debug)]
pub struct CompactAdj {
    out: Vec<CompactRow>,
    /// `None` once declared symmetric: in-queries are served from `out`.
    ins: Option<Vec<CompactRow>>,
    pairs: usize,
}

impl Default for CompactAdj {
    fn default() -> Self {
        CompactAdj {
            out: Vec::new(),
            ins: Some(Vec::new()),
            pairs: 0,
        }
    }
}

impl CompactAdj {
    fn push_slot(&mut self) {
        // While slot ids fit in one word, each new row starts as that word:
        // at small k a bit walk is cheaper than decoding varints, and the
        // rows stay a few bytes each.
        let row = || {
            if self.out.len() < 64 {
                CompactRow::Word(0)
            } else {
                CompactRow::new()
            }
        };
        let (out, ins) = (row(), row());
        self.out.push(out);
        if let Some(rows) = &mut self.ins {
            rows.push(ins);
        }
    }

    fn slots(&self) -> usize {
        self.out.len()
    }

    fn declare_symmetric(&mut self) {
        assert!(
            self.out.is_empty(),
            "symmetry must be declared before any slot exists"
        );
        self.ins = None;
    }

    /// Marks the ordered pair `(i, j)` active; see the type docs for the
    /// append order this relies on.
    fn add_pair(&mut self, i: usize, j: usize) {
        let slots = self.out.len();
        self.out[i].push(j as u32, slots);
        if let Some(ins) = &mut self.ins {
            ins[j].push(i as u32, slots);
        }
        self.pairs += 1;
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.out[i].contains(j as u32)
    }

    /// Visits the out-neighbors of `i` ascending while `f` returns `true`.
    fn walk_out(&self, i: usize, mut f: impl FnMut(usize) -> bool) {
        self.out[i].walk(|j| f(j as usize));
    }

    /// Visits the in-neighbors of `j` (rows `r` with `(r, j)` active)
    /// ascending while `f` returns `true`.
    fn walk_in(&self, j: usize, mut f: impl FnMut(usize) -> bool) {
        // Symmetric adjacency: row j of the transpose is row j itself.
        let rows = self.ins.as_ref().unwrap_or(&self.out);
        rows[j].walk(|i| f(i as usize));
    }

    fn bytes(&self) -> usize {
        let payload = |rows: &[CompactRow]| -> usize { rows.iter().map(CompactRow::bytes).sum() };
        payload(&self.out) + self.ins.as_deref().map_or(0, payload)
    }
}

/// Rows per block of `row_mass` partial sums. Sampling skips whole blocks
/// before it scans rows. The sums are kept only once the slot table fills
/// one block: below that a linear row scan is cheaper than any upkeep, and
/// keeping the small-`k` path lean is what lets this index replace the
/// dense one everywhere.
const BLOCK: usize = 64;

/// The adjacency-row activity index — see the [module docs](self).
#[derive(Debug, Default)]
pub struct AdjActivity {
    adj: CompactAdj,
    /// Whether the diagonal pair `(i, i)` is active.
    diag: Vec<bool>,
    /// `col_in[i] = Σ_j active(i, j) · c_j`.
    col_in: Vec<u64>,
    row_mass: Vec<u128>,
    /// `blocks[b] = Σ row_mass[b · BLOCK .. (b + 1) · BLOCK]`. Empty until
    /// the slot table reaches [`BLOCK`] slots (it never goes back).
    blocks: Vec<u128>,
    mass: u128,
    /// Bit `r % 64` of `dirty[r / 64]` is set iff row `r`'s mass is
    /// stale, awaiting [`Activity::settle`].
    dirty: Vec<u64>,
}

/// The default activity index, under the name the cold engine uses.
pub type SparseActivity = AdjActivity;

/// The default activity index, under the name the warm engine uses.
pub type CompactActivity = AdjActivity;

impl AdjActivity {
    /// Registers the next slot with no active pairs and no agents, and
    /// returns its id.
    fn push_slot(&mut self, diag: bool) -> usize {
        let id = self.adj.slots();
        assert!(id < u32::MAX as usize, "slot ids exceed u32");
        self.adj.push_slot();
        self.diag.push(diag);
        self.col_in.push(0);
        self.row_mass.push(0);
        if id.is_multiple_of(64) {
            self.dirty.push(0);
        }
        // Open a block for every row past the covered ones: on the first
        // crossing of BLOCK slots this sums the existing rows; later it
        // opens a fresh zero-mass block.
        let covered = self.blocks.len() * BLOCK;
        if self.row_mass.len() >= BLOCK && covered < self.row_mass.len() {
            self.blocks.push(self.row_mass[covered..].iter().sum());
        }
        id
    }
}

impl PairSampling for AdjActivity {
    fn is_active(&self, i: usize, j: usize) -> bool {
        self.adj.contains(i, j)
    }

    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize) {
        debug_assert!(
            self.dirty.iter().all(|&w| w == 0),
            "sampling from an unsettled index"
        );
        // Skip whole blocks (there are none below BLOCK slots), then scan
        // rows from the block that holds `r`. Rows are visited in the same
        // order either way, so the draw is that of a plain linear scan.
        let mut rem = r;
        let mut first = 0;
        for &m in &self.blocks {
            if rem < m {
                break;
            }
            rem -= m;
            first += BLOCK;
        }
        let i = (first..self.row_mass.len())
            .find(|&i| {
                let m = self.row_mass[i];
                if rem < m {
                    return true;
                }
                rem -= m;
                false
            })
            .expect("sampling walked past the total mass");
        let ci = u128::from(counts[i]);
        let mut found = usize::MAX;
        self.adj.walk_out(i, |j| {
            let w = ci * u128::from(counts[j].saturating_sub(u64::from(i == j)));
            if rem < w {
                found = j;
                return false;
            }
            rem -= w;
            true
        });
        assert!(
            found != usize::MAX,
            "row mass out of sync with pair weights"
        );
        (i, found)
    }
}

impl Activity for AdjActivity {
    fn add_slot(&mut self, counts: &[u64], mut active: impl FnMut(usize, usize) -> bool) {
        let id = self.push_slot(false);
        debug_assert_eq!(counts.len(), id + 1, "counts not extended for new slot");
        debug_assert_eq!(counts[id], 0, "new slot must hold zero agents");
        for j in 0..id {
            if active(id, j) {
                self.adj.add_pair(id, j);
            }
            if active(j, id) {
                self.adj.add_pair(j, id);
            }
        }
        if active(id, id) {
            self.adj.add_pair(id, id);
            self.diag[id] = true;
        }
        // The new slot holds no agents, so no existing col_in or row_mass
        // changes; only the new row's col_in must be summed once.
        let mut col_in = 0u64;
        self.adj.walk_out(id, |j| {
            col_in += counts[j];
            true
        });
        self.col_in[id] = col_in;
    }

    fn declare_symmetric(&mut self) {
        self.adj.declare_symmetric();
    }

    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        let id = self.push_slot(diag);
        debug_assert_eq!(counts.len(), id + 1, "counts not extended for new slot");
        debug_assert_eq!(counts[id], 0, "new slot must hold zero agents");
        // Out-row first (responders ascending), then the in-column
        // (initiators ascending), then the diagonal — every row receives
        // its appends in ascending id order, as add_pair requires.
        for &j in out {
            debug_assert!((j as usize) < id);
            self.adj.add_pair(id, j as usize);
        }
        for &i in ins {
            debug_assert!((i as usize) < id);
            self.adj.add_pair(i as usize, id);
        }
        if diag {
            self.adj.add_pair(id, id);
        }
        // The new slot holds no agents, so existing col_in and row_mass are
        // untouched; the new row's col_in sums its responder counts (the
        // diagonal contributes the slot's own zero count).
        self.col_in[id] = out.iter().map(|&j| counts[j as usize]).sum();
    }

    fn count_changed(&mut self, slot: usize, delta: i64) {
        let col_in = &mut self.col_in[..];
        let dirty = &mut self.dirty[..];
        // The slot's own row mass scales with its count even when no active
        // pair points into it. In-rows ascend, so each dirty word's bits
        // are gathered in a register and stored once.
        let mut word = slot / 64;
        let mut bits = 1u64 << (slot % 64);
        self.adj.walk_in(slot, |r| {
            col_in[r] = col_in[r]
                .checked_add_signed(delta)
                .expect("col_in underflow");
            if r / 64 != word {
                dirty[word] |= bits;
                (word, bits) = (r / 64, 0);
            }
            bits |= 1 << (r % 64);
            true
        });
        dirty[word] |= bits;
    }

    fn settle(&mut self, counts: &[u64]) {
        // Each row costs a fixed number of checked updates: its own mass,
        // the total and (past BLOCK slots) its block's sum. The overflow
        // flags are gathered without branching and checked after the loop:
        // a desync panics instead of wrapping, in release builds too.
        let (mut rows_ok, mut mass_ok, mut blocks_ok) = (true, true, true);
        let mut mass = self.mass;
        let blocks = &mut self.blocks[..];
        let row_mass = &mut self.row_mass[..];
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (new, ok) = row_mass_of(counts[r], self.col_in[r], self.diag[r]);
                rows_ok &= ok;
                let old = std::mem::replace(&mut row_mass[r], new);
                let (sum, ok) = swap_part(mass, old, new);
                mass_ok &= ok;
                mass = sum;
                if let Some(block) = blocks.get_mut(r / BLOCK) {
                    let (sum, ok) = swap_part(*block, old, new);
                    blocks_ok &= ok;
                    *block = sum;
                }
            }
        }
        assert!(
            rows_ok,
            "row mass underflow: col_in misses the active diagonal"
        );
        assert!(mass_ok, "active mass out of sync with row masses");
        assert!(blocks_ok, "block mass out of sync with row masses");
        self.mass = mass;
    }

    fn mass(&self) -> u128 {
        self.mass
    }

    fn row_mass(&self) -> &[u128] {
        &self.row_mass
    }

    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize)) {
        self.adj.walk_out(i, |j| {
            f(j);
            true
        });
    }

    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize)) {
        self.adj.walk_in(j, |i| {
            f(i);
            true
        });
    }

    fn active_pairs(&self) -> usize {
        self.adj.pairs
    }

    fn adjacency_bytes(&self) -> usize {
        self.adj.bytes()
    }
}

/// Dense pair-matrix activity index — the original engine's bookkeeping,
/// kept as the comparison baseline; see the [module docs](self).
#[derive(Debug)]
pub struct DenseActivity {
    /// `null[i * stride + j]`: the ordered pair `(i, j)` leaves both states
    /// unchanged. Row stride grows by doubling so slot ids stay stable.
    null: Vec<bool>,
    stride: usize,
    slots: usize,
    col_in: Vec<u64>,
    row_mass: Vec<u128>,
    mass: u128,
    pairs: usize,
}

impl Default for DenseActivity {
    fn default() -> Self {
        DenseActivity {
            null: vec![true; 16],
            stride: 4,
            slots: 0,
            col_in: Vec::new(),
            row_mass: Vec::new(),
            mass: 0,
            pairs: 0,
        }
    }
}

impl DenseActivity {
    /// Doubles the pair-matrix stride, remapping existing entries.
    fn grow(&mut self) {
        let old = self.stride;
        let stride = old * 2;
        let mut null = vec![true; stride * stride];
        for i in 0..self.slots {
            null[i * stride..i * stride + self.slots]
                .copy_from_slice(&self.null[i * old..i * old + self.slots]);
        }
        self.stride = stride;
        self.null = null;
    }
}

impl PairSampling for DenseActivity {
    fn is_active(&self, i: usize, j: usize) -> bool {
        !self.null[i * self.stride + j]
    }

    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize) {
        let mut r = r;
        for (i, &row) in self.row_mass.iter().enumerate() {
            if r >= row {
                r -= row;
                continue;
            }
            let ci = u128::from(counts[i]);
            for (j, &cj) in counts.iter().enumerate().take(self.slots) {
                if self.null[i * self.stride + j] {
                    continue;
                }
                let w = ci * u128::from(cj.saturating_sub(u64::from(i == j)));
                if r < w {
                    return (i, j);
                }
                r -= w;
            }
            unreachable!("row mass out of sync with pair weights");
        }
        unreachable!("total mass out of sync with row masses");
    }
}

impl Activity for DenseActivity {
    fn add_slot(&mut self, counts: &[u64], mut active: impl FnMut(usize, usize) -> bool) {
        let id = self.slots;
        debug_assert_eq!(counts.len(), id + 1, "counts not extended for new slot");
        if id >= self.stride {
            self.grow();
        }
        self.slots += 1;
        self.col_in.push(0);
        self.row_mass.push(0);
        for j in 0..=id {
            let out_active = active(id, j);
            self.null[id * self.stride + j] = !out_active;
            self.pairs += usize::from(out_active);
            if j < id {
                let in_active = active(j, id);
                self.null[j * self.stride + id] = !in_active;
                self.pairs += usize::from(in_active);
            }
        }
        self.col_in[id] = (0..=id)
            .filter(|&j| !self.null[id * self.stride + j])
            .map(|j| counts[j])
            .sum();
    }

    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        let id = self.slots;
        debug_assert_eq!(counts.len(), id + 1, "counts not extended for new slot");
        if id >= self.stride {
            self.grow();
        }
        self.slots += 1;
        self.col_in.push(0);
        self.row_mass.push(0);
        for &j in out {
            self.null[id * self.stride + j as usize] = false;
            self.pairs += 1;
        }
        for &i in ins {
            self.null[(i as usize) * self.stride + id] = false;
            self.pairs += 1;
        }
        if diag {
            self.null[id * self.stride + id] = false;
            self.pairs += 1;
        }
        self.col_in[id] = out.iter().map(|&j| counts[j as usize]).sum();
    }

    fn count_changed(&mut self, slot: usize, delta: i64) {
        // Every slot with an active pair into column `slot` absorbs the
        // count change linearly — the dense O(slots) scan.
        for r in 0..self.slots {
            if !self.null[r * self.stride + slot] {
                self.col_in[r] = self.col_in[r]
                    .checked_add_signed(delta)
                    .expect("col_in underflow");
            }
        }
    }

    fn settle(&mut self, counts: &[u64]) {
        // Full refresh, once per change-point — the dense O(slots) rescan.
        let mut mass = 0u128;
        for (r, &c) in counts.iter().enumerate().take(self.slots) {
            let (m, ok) = row_mass_of(c, self.col_in[r], !self.null[r * self.stride + r]);
            debug_assert!(ok, "row mass underflow: col_in misses the active diagonal");
            self.row_mass[r] = m;
            mass += m;
        }
        self.mass = mass;
    }

    fn mass(&self) -> u128 {
        self.mass
    }

    fn row_mass(&self) -> &[u128] {
        &self.row_mass
    }

    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize)) {
        for j in 0..self.slots {
            if !self.null[i * self.stride + j] {
                f(j);
            }
        }
    }

    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize)) {
        for i in 0..self.slots {
            if !self.null[i * self.stride + j] {
                f(i);
            }
        }
    }

    fn active_pairs(&self) -> usize {
        self.pairs
    }

    fn adjacency_bytes(&self) -> usize {
        // One byte per matrix cell, active or not — the dense cost model.
        self.null.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Drives both indexes through an identical random schedule and checks
    /// them against a brute-force reference at every step.
    #[test]
    fn all_indexes_agree_with_bruteforce() {
        // Activity rule: (i, j) is active iff (i * 7 + j * 3) % 4 == 0,
        // arbitrary but deterministic and ~25% dense.
        let active = |i: usize, j: usize| (i * 7 + j * 3).is_multiple_of(4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut adj = AdjActivity::default();
        let mut dense = DenseActivity::default();
        let mut counts: Vec<u64> = Vec::new();

        for round in 0..200 {
            if counts.len() < 12 && round % 8 == 0 {
                counts.push(0);
                adj.add_slot(&counts, active);
                dense.add_slot(&counts, active);
            }
            let slot = rng.random_range(0..counts.len());
            let delta: i64 = if counts[slot] == 0 {
                3
            } else {
                [-1i64, 1, 2][rng.random_range(0..3usize)]
            };
            counts[slot] = counts[slot].checked_add_signed(delta).unwrap();
            adj.count_changed(slot, delta);
            dense.count_changed(slot, delta);
            adj.settle(&counts);
            dense.settle(&counts);

            let expected = brute_row_mass(&counts, active);
            assert_eq!(adj.row_mass(), &expected[..], "adj rows round {round}");
            assert_eq!(dense.row_mass(), &expected[..], "dense rows round {round}");
            let total: u128 = expected.iter().sum();
            assert_eq!(adj.mass(), total, "adj mass round {round}");
            assert_eq!(dense.mass(), total, "dense mass round {round}");

            // Sampling must agree between the indexes for every r.
            if total > 0 {
                for _ in 0..8 {
                    let r = rng.random_range(0..total);
                    assert_eq!(
                        adj.sample_change(r, &counts),
                        dense.sample_change(r, &counts),
                        "r = {r}"
                    );
                }
            }
            for i in 0..counts.len() {
                for j in 0..counts.len() {
                    assert_eq!(adj.is_active(i, j), active(i, j));
                    assert_eq!(dense.is_active(i, j), active(i, j));
                }
            }
        }
        assert_eq!(adj.active_pairs(), dense.active_pairs());
    }

    /// `row_mass[i] = Σ_j active(i, j) · c_i · (c_j − [i = j])`, summed
    /// pair by pair.
    fn brute_row_mass(counts: &[u64], active: impl Fn(usize, usize) -> bool) -> Vec<u128> {
        (0..counts.len())
            .map(|i| {
                (0..counts.len())
                    .filter(|&j| active(i, j))
                    .map(|j| {
                        u128::from(counts[i])
                            * u128::from(counts[j].saturating_sub(u64::from(i == j)))
                    })
                    .sum()
            })
            .collect()
    }

    /// Maps `r` to its pair by walking every row, then every pair of that
    /// row — the definition [`PairSampling::sample_change`] must match.
    fn brute_sample(
        counts: &[u64],
        active: impl Fn(usize, usize) -> bool,
        mut r: u128,
    ) -> (usize, usize) {
        for i in 0..counts.len() {
            for j in (0..counts.len()).filter(|&j| active(i, j)) {
                let w =
                    u128::from(counts[i]) * u128::from(counts[j].saturating_sub(u64::from(i == j)));
                if r < w {
                    return (i, j);
                }
                r -= w;
            }
        }
        panic!("r past the total mass");
    }

    /// Growing one index past 64, 128 and 192 slots must open each block
    /// sum exactly when its first row appears, keep every block equal to
    /// its rows' sum, and leave every draw equal to the unblocked scan —
    /// including at block edges and across zero-mass rows.
    #[test]
    fn block_sums_preserve_sampling_across_block_boundaries() {
        let active = |i: usize, j: usize| (i + 2 * j).is_multiple_of(3);
        let mut rng = StdRng::seed_from_u64(21);
        let mut adj = AdjActivity::default();
        let mut dense = DenseActivity::default();
        let mut counts: Vec<u64> = Vec::new();
        while counts.len() < 3 * BLOCK + 10 {
            counts.push(0);
            adj.add_slot(&counts, active);
            dense.add_slot(&counts, active);
            // Grow some rows and empty others, so whole stretches of rows
            // (and, early on, whole blocks) carry zero mass.
            for _ in 0..3 {
                let slot = rng.random_range(0..counts.len());
                let delta = if counts[slot] > 0 && rng.random_range(0..3u32) == 0 {
                    -(counts[slot] as i64)
                } else {
                    rng.random_range(1..4i64)
                };
                counts[slot] = counts[slot].checked_add_signed(delta).unwrap();
                adj.count_changed(slot, delta);
                dense.count_changed(slot, delta);
            }
            adj.settle(&counts);
            dense.settle(&counts);

            let slots = counts.len();
            let rows = brute_row_mass(&counts, active);
            let total: u128 = rows.iter().sum();
            assert_eq!(adj.row_mass(), &rows[..], "rows at {slots} slots");
            assert_eq!(adj.mass(), total, "mass at {slots} slots");
            assert_eq!(dense.mass(), total, "dense mass at {slots} slots");
            let blocks: Vec<u128> = if slots < BLOCK {
                Vec::new()
            } else {
                rows.chunks(BLOCK).map(|c| c.iter().sum()).collect()
            };
            assert_eq!(adj.blocks, blocks, "block sums at {slots} slots");
            if total == 0 {
                continue;
            }
            // Sweep r: both edges of every block, both edges of the total,
            // and a few interior points.
            let mut rs = vec![0, total - 1];
            let mut edge = 0u128;
            for &b in &blocks {
                edge += b;
                if edge < total {
                    rs.extend([edge.saturating_sub(1), edge]);
                }
            }
            rs.extend((0..6).map(|_| rng.random_range(0..total)));
            for r in rs {
                let expected = brute_sample(&counts, active, r);
                assert_eq!(
                    adj.sample_change(r, &counts),
                    expected,
                    "r = {r} at {slots} slots"
                );
                assert_eq!(
                    dense.sample_change(r, &counts),
                    expected,
                    "r = {r} at {slots} slots"
                );
            }
        }
        assert_eq!(adj.blocks.len(), 4, "three block boundaries were crossed");
    }

    #[test]
    #[should_panic(expected = "walked past")]
    fn sampling_past_the_mass_panics() {
        let mut adj = AdjActivity::default();
        let counts = vec![0u64; 1];
        adj.add_slot(&counts, |_, _| true);
        let counts = vec![2u64];
        adj.count_changed(0, 2);
        adj.settle(&counts);
        let _ = adj.sample_change(adj.mass(), &counts);
    }

    /// A total out of step with its rows must stop the run at the next
    /// settle, in release builds too, instead of wrapping below zero.
    #[test]
    #[should_panic(expected = "active mass out of sync")]
    fn desynced_mass_panics_instead_of_wrapping() {
        let mut adj = AdjActivity::default();
        let mut counts = vec![0u64];
        adj.add_slot(&counts, |_, _| true);
        counts[0] = 3;
        adj.count_changed(0, 3);
        adj.settle(&counts);
        adj.mass -= 1;
        counts[0] = 0;
        adj.count_changed(0, -3);
        adj.settle(&counts);
    }

    #[test]
    fn u128_masses_survive_counts_past_u32() {
        // Two slots with ~2^32 agents each: the cross-pair weight alone
        // (~2^64) overflows u64 — the arithmetic must stay exact in u128.
        let active = |i: usize, j: usize| i != j;
        let big = u64::from(u32::MAX) + 7;
        let mut adj = AdjActivity::default();
        let mut counts = Vec::new();
        for _ in 0..2 {
            counts.push(0);
            adj.add_slot(&counts, active);
        }
        for (slot, c) in counts.iter_mut().enumerate() {
            *c = big;
            adj.count_changed(slot, big as i64);
        }
        adj.settle(&counts);
        let expected = 2 * u128::from(big) * u128::from(big);
        assert!(expected > u128::from(u64::MAX));
        assert_eq!(adj.mass(), expected);
        assert_eq!(adj.sample_change(0, &counts), (0, 1));
        assert_eq!(adj.sample_change(expected - 1, &counts), (1, 0));
    }

    /// The symmetric discovery path must produce the exact structure of the
    /// all-ordered-pairs path while querying each unordered pair once.
    #[test]
    fn symmetric_add_slot_halves_queries_and_matches() {
        // A symmetric rule (depends only on the unordered pair).
        let rule = |i: usize, j: usize| (i.max(j) * 5 + i.min(j)).is_multiple_of(3);
        let slots = 40usize;
        let mut counts = Vec::new();
        let mut plain = AdjActivity::default();
        let mut plain_queries = 0u64;
        let mut sym = AdjActivity::default();
        let mut sym_queries = 0u64;
        for s in 0..slots {
            counts.push(0);
            plain.add_slot(&counts, |i, j| {
                plain_queries += 1;
                rule(i, j)
            });
            sym.add_slot_symmetric(&counts, |i, j| {
                sym_queries += 1;
                rule(i, j)
            });
            // Both see the same adjacency after every slot.
            for i in 0..=s {
                for j in 0..=s {
                    assert_eq!(sym.is_active(i, j), plain.is_active(i, j), "({i},{j})");
                }
            }
        }
        assert_eq!(plain.active_pairs(), sym.active_pairs());
        // Plain: 2s+1 queries per slot; symmetric: s+1.
        assert_eq!(plain_queries, (0..slots as u64).map(|s| 2 * s + 1).sum());
        assert_eq!(sym_queries, (0..slots as u64).map(|s| s + 1).sum());
    }

    /// A symmetric-declared index serves in-queries from the shared
    /// out-rows and stays bit-compatible with the unshared and dense ones.
    #[test]
    fn symmetric_compact_store_matches_unshared() {
        let rule = |i: usize, j: usize| (i.max(j) + 2 * i.min(j)).is_multiple_of(3);
        let mut rng = StdRng::seed_from_u64(31);
        let mut shared = AdjActivity::default();
        shared.declare_symmetric();
        let mut unshared = AdjActivity::default();
        let mut dense = DenseActivity::default();
        let mut counts: Vec<u64> = Vec::new();
        // Past 64 slots, so rows leave their inline word for the heap.
        for _ in 0..100 {
            counts.push(0);
            shared.add_slot_symmetric(&counts, rule);
            unshared.add_slot(&counts, rule);
            dense.add_slot(&counts, rule);
            let slot = rng.random_range(0..counts.len());
            let delta = 1 + (slot as i64 % 3);
            counts[slot] += delta as u64;
            for idx in [&mut shared, &mut unshared] {
                idx.count_changed(slot, delta);
                idx.settle(&counts);
            }
            dense.count_changed(slot, delta);
            dense.settle(&counts);
            assert_eq!(shared.mass(), dense.mass());
            assert_eq!(unshared.mass(), dense.mass());
            if shared.mass() > 0 {
                for _ in 0..6 {
                    let r = rng.random_range(0..shared.mass());
                    let expected = dense.sample_change(r, &counts);
                    assert_eq!(shared.sample_change(r, &counts), expected);
                    assert_eq!(unshared.sample_change(r, &counts), expected);
                }
            }
        }
        assert_eq!(shared.active_pairs(), dense.active_pairs());
        assert!(
            shared.adjacency_bytes() < unshared.adjacency_bytes(),
            "shared rows must undercut one row set per orientation"
        );
        assert!(
            shared.adjacency_bytes() < 4 * shared.active_pairs(),
            "shared rows must stay under 4 bytes per active pair: {} bytes for {} pairs",
            shared.adjacency_bytes(),
            shared.active_pairs()
        );
    }

    /// Ingesting pre-classified slots through `add_slot_from_lists` (the
    /// warm engine's lazy materialization hook) must equal per-pair
    /// discovery through `add_slot`, for every index, and change nothing
    /// about subsequent updates.
    #[test]
    fn from_lists_matches_incremental_discovery() {
        let active = |i: usize, j: usize| (3 * i + 5 * j).is_multiple_of(4);
        let slots = 80usize;
        let mut counts = vec![0u64; 0];
        let mut incremental = AdjActivity::default();
        for _ in 0..slots {
            counts.push(0);
            incremental.add_slot(&counts, active);
        }
        let mut loaded = AdjActivity::default();
        let mut loaded_dense = DenseActivity::default();
        counts.clear();
        for id in 0..slots {
            counts.push(0);
            let out: Vec<u32> = (0..id)
                .filter(|&j| active(id, j))
                .map(|j| j as u32)
                .collect();
            let ins: Vec<u32> = (0..id)
                .filter(|&i| active(i, id))
                .map(|i| i as u32)
                .collect();
            let diag = active(id, id);
            loaded.add_slot_from_lists(&counts, &out, &ins, diag);
            loaded_dense.add_slot_from_lists(&counts, &out, &ins, diag);
        }

        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..100 {
            let slot = rng.random_range(0..slots);
            counts[slot] += 2;
            for idx in [&mut incremental, &mut loaded] {
                idx.count_changed(slot, 2);
                idx.settle(&counts);
            }
            loaded_dense.count_changed(slot, 2);
            loaded_dense.settle(&counts);
            let mass = incremental.mass();
            assert_eq!(loaded.mass(), mass);
            assert_eq!(loaded_dense.mass(), mass);
            if mass > 0 {
                let r = rng.random_range(0..mass);
                let expected = incremental.sample_change(r, &counts);
                assert_eq!(loaded.sample_change(r, &counts), expected);
                assert_eq!(loaded_dense.sample_change(r, &counts), expected);
            }
        }
    }

    /// High-occupancy rows must convert to bitsets (and sample identically
    /// before and after the conversion).
    #[test]
    fn dense_rows_densify_and_sample_identically() {
        let slots = 400usize;
        // Row 0 is fully active (densifies); the rest nearly empty.
        let active = |i: usize, j: usize| i == 0 || (i + j).is_multiple_of(97);
        let mut compact = AdjActivity::default();
        let mut dense = DenseActivity::default();
        let mut counts: Vec<u64> = Vec::new();
        for _ in 0..slots {
            counts.push(0);
            compact.add_slot(&counts, active);
            dense.add_slot(&counts, active);
        }
        for (s, c) in counts.iter_mut().enumerate() {
            *c = 1 + (s as u64 % 5);
            compact.count_changed(s, *c as i64);
            dense.count_changed(s, *c as i64);
        }
        compact.settle(&counts);
        dense.settle(&counts);
        assert_eq!(compact.mass(), dense.mass());
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..200 {
            let r = rng.random_range(0..compact.mass());
            assert_eq!(
                compact.sample_change(r, &counts),
                dense.sample_change(r, &counts),
                "r = {r}"
            );
        }
        assert!(
            matches!(compact.adj.out[0], CompactRow::Dense { .. }),
            "the full row must be a bitset"
        );
        // The full row plus the sparse tail, without shared symmetric rows,
        // must stay under 4 bytes per active pair (the real symmetric
        // workload's bound is asserted in the `discovery` bench).
        assert!(
            compact.adjacency_bytes() < 4 * compact.active_pairs(),
            "compact {} bytes for {} active pairs",
            compact.adjacency_bytes(),
            compact.active_pairs()
        );
        // walk_out must agree across representations.
        for i in [0usize, 1, 97] {
            let mut a = Vec::new();
            Activity::walk_out(&compact, i, &mut |j| a.push(j));
            let mut b = Vec::new();
            Activity::walk_out(&dense, i, &mut |j| b.push(j));
            assert_eq!(a, b, "row {i}");
        }
    }

    /// Varint rows survive ids needing multi-byte encodings.
    #[test]
    fn varint_rows_roundtrip_large_gaps() {
        let mut row = CompactRow::new();
        let ids = [0u32, 1, 127, 128, 16_383, 16_384, 2_000_000, 2_000_001];
        for &id in &ids {
            row.push(id, 10_000_000);
        }
        let mut seen = Vec::new();
        row.walk(|j| {
            seen.push(j);
            true
        });
        assert_eq!(seen, ids);
        for &id in &ids {
            assert!(row.contains(id));
        }
        assert!(!row.contains(2));
        assert!(!row.contains(3_000_000));
    }
}
