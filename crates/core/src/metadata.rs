//! Loop auxiliary metadata `L` (⑧⑨⑩ in Fig. 3, §5.1 "Loop metadata").
//!
//! The metadata generator assembles, per executed loop, the unique loop path
//! encodings in order of first occurrence, the number of iterations of each path and
//! the indirect branch targets encountered in the loop.  `L` is appended to the final
//! hash value `A` and covered by the attestation signature; the verifier uses it to
//! reconstruct (and judge) the compressed part of the execution path.
//!
//! Every data structure holds `L` as a [`PackedMetadata`]: one heap block of
//! LEB128 varints in which consecutive identical loop records are stored once,
//! as a run.  The loop monitor writes it as each loop exits, and the wire, the
//! signature, the reference database and snapshots carry it as it is, so no
//! verifier path expands a run.  Two things do, allocating per loop
//! execution, and are meant for locally produced measurements: the paper's
//! fixed-width layout ([`PackedMetadata::to_bytes`]; its length,
//! [`PackedMetadata::size_bytes`], is counted without it) and [`Metadata`],
//! the decoded view ([`PackedMetadata::decode`]) for tests, the CLI and the
//! experiments that inspect loop records.
//!
//! One walk reads the packed form, and accepts only what the writer
//! produces.  Validating it ([`PackedMetadata::from_packed`]), decoding it
//! ([`Metadata::from_packed`]), transcoding it and the judge's loop-path check
//! are visitors of that walk.
//!
//! # Packed `L`, version 5
//!
//! Every value is a minimal LEB128 varint: seven bits per byte, low bits
//! first, the top bit set on every byte but the last.  `L` is the number of
//! stored records, then each stored record in exit order:
//!
//! | # | field | present | value |
//! |---|---|---|---|
//! | 0 | stored records | once, in front | `u32`; each record takes at least 1 byte |
//! | 1 | flag | always | `(repeats << 5) \| same_paths << 4 \| same_depth << 3 \| same_loop << 2 \| has_targets << 1 \| encoder_overflowed` |
//! | 2 | entry | `same_loop` clear | `u32` |
//! | 3 | exit | `same_loop` clear | `u32` |
//! | 4 | nesting depth | `same_depth` clear | `usize` |
//! | 5 | path count | `same_paths` clear | `u32`; each path takes at least 2 bytes |
//! | 6 | path id | `same_paths` clear, per path in order of first occurrence | `u32` |
//! | 7 | iterations | per path, in the order of the record's path ids | `u64`; each takes at least 1 byte |
//! | 8 | target count | `has_targets` set | `u32`, at least 1; each target takes at least 2 bytes |
//! | 9 | target, code | per target | `u32`, `u32` |
//!
//! * A stored record stands for `repeats + 1` consecutive loop executions
//!   that recorded the same loop record; the runs total at most `u32::MAX`.
//! * `same_loop`, `same_depth` and `same_paths` each say that a value of the
//!   record is that of the stored record before it, which the record then
//!   does not write: its entry and exit, its nesting depth, and its path ids
//!   in order (so its path count too).  Each is set exactly when the two
//!   values are equal: never on the first record, and always when the
//!   record repeats the value.  A record's path ids are those of the last
//!   record that wrote them out.
//! * A path's index of first occurrence is its position in the list.
//! * A record with no indirect target has `has_targets` clear and no target
//!   count.
//! * Runs are maximal: no stored record equals the one before it.
//!
//! Each of these forms is the only one the writer produces for its metadata,
//! so two packed values are equal exactly when the metadata are.  The reader
//! refuses any other form with a typed [`serde::Error`]: a varint longer than
//! its value needs ([`NonCanonicalVarint`](serde::Error::NonCanonicalVarint)),
//! a flag that sets a `same_*` bit on the first record, clears one although
//! the record restates the value before it, or sets `has_targets` before a
//! target count of 0 ([`NonCanonicalRecord`](serde::Error::NonCanonicalRecord)),
//! and a record equal to the one before it
//! ([`NonMaximalRun`](serde::Error::NonMaximalRun)).  A set `same_*` bit
//! carries no value to compare: the record has the value before it, so
//! setting one on a record whose value differed writes another `L`, which
//! the signature and the reference comparison tell apart.

use std::ops::Range;

/// One indirect-branch target observed inside a loop, with the n-bit code the CAM
/// assigned to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectTargetRecord {
    /// The 32-bit target address.
    pub target: u32,
    /// The code used for it inside path IDs (0 means the CAM overflowed).
    pub code: u32,
}

/// One unique path through a loop body.  Its index of first occurrence
/// within the loop execution is its position in [`LoopRecord::paths`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRecord {
    /// The path ID (sentinel-prefixed encoding; 0 if the encoder overflowed).
    pub path_id: u32,
    /// Number of iterations that followed this path.
    pub iterations: u64,
}

/// Metadata describing one execution of one loop (one activation from entry to exit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopRecord {
    /// Address of the loop entry node (target of the backward branch).
    pub entry: u32,
    /// Address of the loop exit node (the block following the backward branch).
    pub exit: u32,
    /// Nesting depth at which the loop executed (1 = outermost).
    pub nesting_depth: usize,
    /// Unique paths in order of first occurrence, with iteration counts.
    pub paths: Vec<PathRecord>,
    /// Indirect-branch targets encountered in the loop, with their CAM codes.
    pub indirect_targets: Vec<IndirectTargetRecord>,
    /// Whether any iteration overflowed the path encoder (ℓ bits exceeded).
    pub encoder_overflowed: bool,
}

impl LoopRecord {
    /// Total number of counted iterations across all paths.
    pub fn total_iterations(&self) -> u64 {
        self.paths.iter().map(|p| p.iterations).sum()
    }

    /// Number of distinct paths observed.
    pub fn distinct_paths(&self) -> usize {
        self.paths.len()
    }
}

/// The auxiliary metadata `L` of one attested execution, decoded: the view
/// [`PackedMetadata::decode`] returns, with one record per loop execution.
/// [`Metadata::pack`] writes it back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metadata {
    /// Loop records in the order the loops exited.
    pub loops: Vec<LoopRecord>,
}

impl Metadata {
    /// Creates empty metadata (a loop-free execution).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of loop executions recorded.
    pub fn loop_count(&self) -> usize {
        self.loops.len()
    }

    /// Total counted iterations across all loops.
    pub fn total_iterations(&self) -> u64 {
        self.loops.iter().map(LoopRecord::total_iterations).sum()
    }

    /// Total number of distinct paths across all loops.
    pub fn total_distinct_paths(&self) -> usize {
        self.loops.iter().map(LoopRecord::distinct_paths).sum()
    }

    /// The packed form of this view, written by the one writer of packed `L`,
    /// which folds equal consecutive records into runs.
    pub fn pack(&self) -> PackedMetadata {
        let mut writer = PackedWriter::default();
        for l in &self.loops {
            writer.loop_header(&LoopHeader {
                entry: l.entry,
                exit: l.exit,
                nesting_depth: l.nesting_depth,
                encoder_overflowed: l.encoder_overflowed,
            });
            writer.paths(l.paths.len());
            l.paths.iter().for_each(|&path| writer.path(path));
            writer.targets(l.indirect_targets.len());
            l.indirect_targets.iter().for_each(|&target| writer.target(target));
        }
        writer.finish()
    }

    /// Reads packed `L` into its decoded view.  The walk is
    /// [`PackedMetadata::from_packed`]'s, so both accept and reject exactly
    /// the same bytes with the same errors.
    ///
    /// The view holds one record per loop execution, so it allocates per
    /// loop execution: up to `u32::MAX` records for a few bytes that claim
    /// them.  It is meant for locally produced measurements; bound
    /// [`PackedMetadata::loop_count`] first before decoding bytes a peer
    /// chose.  The walk checks every count of stored records against the
    /// bytes left before anything is reserved for it.
    ///
    /// # Errors
    ///
    /// As [`PackedMetadata::from_packed`].
    pub fn from_packed(bytes: &[u8]) -> Result<Self, serde::Error> {
        let mut view = Self::new();
        walk(bytes, &mut view)?;
        Ok(view)
    }
}

/// Decoding: the view grows record by record as the walk reads them, and
/// each record is repeated once per further loop execution of its run.
impl Visit for Metadata {
    fn loops(&mut self, runs: usize) {
        self.loops.reserve_exact(runs);
    }

    fn loop_header(&mut self, header: &LoopHeader) {
        self.loops.push(LoopRecord {
            entry: header.entry,
            exit: header.exit,
            nesting_depth: header.nesting_depth,
            paths: Vec::new(),
            indirect_targets: Vec::new(),
            encoder_overflowed: header.encoder_overflowed,
        });
    }

    fn paths(&mut self, count: usize) {
        self.loops.last_mut().expect(HEADER_FIRST).paths.reserve_exact(count);
    }

    fn path(&mut self, path: PathRecord) {
        self.loops.last_mut().expect(HEADER_FIRST).paths.push(path);
    }

    fn targets(&mut self, count: usize) {
        self.loops.last_mut().expect(HEADER_FIRST).indirect_targets.reserve_exact(count);
    }

    fn target(&mut self, target: IndirectTargetRecord) {
        self.loops.last_mut().expect(HEADER_FIRST).indirect_targets.push(target);
    }

    fn repeats(&mut self, count: u32) {
        let record = self.loops.last().expect(HEADER_FIRST).clone();
        self.loops.extend(std::iter::repeat_n(record, count as usize));
    }
}

/// Why a loop's counts and records always follow its header.
const HEADER_FIRST: &str = "the walk reads a loop's header before its records";

/// The auxiliary metadata `L` of one attested execution, packed into one heap
/// block.
///
/// The bytes follow the [version-5 grammar](self#packed-l-version-5): the
/// number of stored records, then per stored record a flag, its entry and
/// exit, its depth and its path ids in order of first occurrence, each
/// unless it is that of the record before it, the iterations of its paths,
/// and its indirect targets when it has any — each as a LEB128 varint.  A
/// value takes one byte per 7 significant bits, so the counts, flags and
/// small addresses that dominate `L` take a byte or two.
///
/// A stored record is a run: it stands for `repeats + 1` consecutive loop
/// executions that recorded the same loop record, and its flag carries
/// `repeats` above five bits.  A record that does not repeat has a flag
/// below 32: one byte.
///
/// Only the writer (which the loop monitor and [`Metadata::pack`] drive) and
/// the validating [`PackedMetadata::from_packed`] build one.  The writer folds
/// every record equal to the one before it into that record's run, and the
/// reader accepts only the writer's forms, so the bytes are canonical: two
/// values are equal exactly when the metadata are.  The codec form is the
/// bytes behind a `u32` length, and it is what the attestation signature
/// covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedMetadata(Box<[u8]>);

impl PackedMetadata {
    /// Validates `bytes` as packed `L` and copies them into a block of
    /// exactly their length.  The validating walk allocates nothing and
    /// takes time linear in the bytes, however many loop executions the
    /// runs claim.
    ///
    /// # Errors
    ///
    /// Never panics; returns
    /// * [`serde::Error::NonCanonicalVarint`] for a varint longer than its
    ///   value needs, or wider than 64 bits;
    /// * [`serde::Error::IntegerOverflow`] for a value above `u32::MAX` in a
    ///   field the fixed-width layout holds as a `u32` (addresses, path ids,
    ///   codes, counts), above `usize::MAX` in a `usize` field, or for runs
    ///   that total more than `u32::MAX` loop executions (its `value` is the
    ///   running total);
    /// * [`serde::Error::NonCanonicalRecord`] for a flag that sets
    ///   `same_loop`, `same_depth` or `same_paths` on the first stored
    ///   record, or clears one although the record's entry and exit, depth
    ///   or path ids are those of the stored record before it, or that sets
    ///   `has_targets` before a target count of 0;
    /// * [`serde::Error::NonMaximalRun`] for a stored record equal to the one
    ///   before it, which the writer would have folded into its run;
    /// * [`serde::Error::UnexpectedEof`] for truncation, or for a count of
    ///   records that the bytes left cannot hold;
    /// * [`serde::Error::TrailingBytes`] for bytes after the last record.
    pub fn from_packed(bytes: &[u8]) -> Result<Self, serde::Error> {
        validate(bytes)?;
        Ok(Self(bytes.into()))
    }

    /// The packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the packed bytes: what `L` takes on the wire, under the
    /// signature and in memory.
    pub fn packed_len(&self) -> usize {
        self.0.len()
    }

    /// Number of stored records, each a run of identical consecutive loop
    /// executions, read from the front.
    pub fn run_count(&self) -> usize {
        Fields::new(&self.0).varint().expect(PACKED) as usize
    }

    /// Number of loop executions recorded: every run's length, summed in one
    /// walk over the packed bytes.
    pub fn loop_count(&self) -> usize {
        walk(&self.0, &mut ()).expect(PACKED) as usize
    }

    /// The decoded view, with one record per loop execution.  Allocates per
    /// loop execution (see [`Metadata::from_packed`]); meant for locally
    /// produced measurements.
    pub fn decode(&self) -> Metadata {
        Metadata::from_packed(&self.0).expect(PACKED)
    }

    /// The paper's fixed-width layout of `L`, with every run expanded into
    /// one record per loop execution.  It allocates per loop execution and
    /// is meant for locally produced measurements: experiment E7 sweeps its
    /// size and the engine's golden corpus pins it.  The signature covers the
    /// packed bytes instead.
    ///
    /// Layout (all little-endian):
    /// `loop_count:u32` then per loop: `entry:u32, exit:u32, depth:u64,
    /// overflowed:u8, path_count:u32, {path_id:u32, first_occurrence:u64,
    /// iterations:u64}*, target_count:u32, {target:u32, code:u32}*`.
    ///
    /// `first_occurrence` is the path's position in its record's list.  The
    /// `usize` fields (`nesting_depth`, `first_occurrence`) are encoded at
    /// their full width, matching the packed form (which carries any `u64`
    /// depth), so the layout is injective over everything the wire can
    /// decode.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0; 4];
        let mut layout = FixedWidth { out: &mut out, record: 0, path: 0 };
        let loops = walk(&self.0, &mut layout).expect(PACKED);
        out[..4].copy_from_slice(&loops.to_le_bytes());
        out
    }

    /// Size of the fixed-width layout ([`PackedMetadata::to_bytes`]) in bytes
    /// — the quantity experiment E7 sweeps ("the length of the auxiliary
    /// metadata that must be sent to V depends on the number of loops
    /// executed, the number of different paths per loop, and the number of
    /// indirect branch targets", §6.1).  Counts it in one walk over the
    /// packed bytes, each stored record's fixed widths once per loop
    /// execution of its run, and allocates nothing.  The packed form
    /// ([`PackedMetadata::packed_len`] bytes) grows with the same counts,
    /// with the logarithm of the values recorded, and with the number of
    /// runs rather than of loop executions.
    pub fn size_bytes(&self) -> usize {
        let mut len = FixedWidthLen::default();
        self.visit(&mut len);
        4 + len.total
    }

    /// Walks the packed bytes, which were validated when they were built.
    pub(crate) fn visit(&self, visit: &mut impl Visit) {
        walk(&self.0, visit).expect(PACKED);
    }
}

impl serde::Serialize for PackedMetadata {
    fn serialize(&self, serializer: &mut serde::Serializer) -> Result<(), serde::Error> {
        serializer.write_len(self.0.len())?;
        serializer.write_bytes(&self.0);
        Ok(())
    }
}

impl serde::Deserialize for PackedMetadata {
    fn deserialize(deserializer: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let len = deserializer.read_len()?;
        Self::from_packed(deserializer.read_bytes(len)?)
    }
}

/// Why walking a [`PackedMetadata`] cannot fail: only the writer and the
/// validating reader build one.
const PACKED: &str = "packed metadata holds what the writer wrote or the reader accepted";

/// The one writer of packed `L`.  Loop records go in field group by field
/// group, as a walk over `L` hands them on: the loop monitor writes each as
/// its loop exits, and [`Metadata::pack`] writes a decoded view's.  A record
/// stays open until the next one starts or [`PackedWriter::finish`] runs.
/// Closing it drops its path count and ids when they are the last stored
/// run's, and folds it into that run when the two records are equal, so the
/// writer stores maximal runs only.  It counts the runs itself, and `finish`
/// puts the count in front.
#[derive(Debug, Clone, Default)]
pub(crate) struct PackedWriter {
    /// Runs stored so far, the open record aside.
    runs: u64,
    /// The records, without the run count.
    records: Vec<u8>,
    /// The last stored run.
    last: Option<Run>,
    /// Where the last stored run's path count and ids are written out in
    /// `records`: in that run, or in the last run before it that wrote them.
    listed: Range<usize>,
    /// The record being written.
    open: Option<Run>,
}

/// One record in [`PackedWriter`]'s bytes.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Its fixed fields.
    header: LoopHeader,
    /// Offset of its flag varint, its first byte.
    start: usize,
    /// Length of its flag varint.
    flag_len: usize,
    /// Its flag (see [`flag`]).
    flag: u64,
    /// Length of the varints between the flag and the path count: entry and
    /// exit unless the flag sets `same_loop`, then the depth unless it sets
    /// `same_depth`.
    head_len: usize,
    /// Length of its path count and ids: 0 when the flag sets `same_paths`.
    list_len: usize,
}

impl Run {
    /// Where its path count and ids are.
    fn list(&self) -> Range<usize> {
        let at = self.start + self.flag_len + self.head_len;
        at..at + self.list_len
    }

    /// Offset of its iterations: its targets follow.
    fn tail(&self) -> usize {
        self.list().end
    }

    /// Whether `next`, the record written right after this run in `records`,
    /// is the same loop record: the same fixed fields, this run's path ids
    /// (its flag sets `same_paths`), and the same bytes from the iterations
    /// on.  Those bytes hold a target count exactly when the flag sets
    /// `has_targets`, so equal bytes mean equal iterations and equal targets.
    fn same_record(&self, records: &[u8], next: &Run) -> bool {
        self.header == next.header
            && next.flag & flag::SAME_PATHS != 0
            && records[self.tail()..next.start] == records[next.tail()..]
    }
}

impl PackedWriter {
    /// The packed metadata of the records written, in one heap block of
    /// exactly its length.
    pub(crate) fn finish(mut self) -> PackedMetadata {
        self.close();
        let mut packed = Vec::with_capacity(varint_len(self.runs) + self.records.len());
        put_varint(&mut packed, self.runs);
        packed.extend_from_slice(&self.records);
        PackedMetadata(packed.into_boxed_slice())
    }

    /// Closes the open record: drops its path count and ids in place when
    /// they are the last run's, then folds it into the last run when it is
    /// the same loop record, or stores it as a new run.
    fn close(&mut self) {
        let Some(mut open) = self.open.take() else { return };
        if self.last.is_some() && self.records[open.list()] == self.records[self.listed.clone()] {
            self.records.drain(open.list());
            open.list_len = 0;
            open.flag |= flag::SAME_PATHS;
            self.records[open.start] = open.flag as u8;
        }
        if self.last.is_some_and(|last| last.same_record(&self.records, &open)) {
            self.records.truncate(open.start);
            self.add_repeats(1);
        } else {
            if open.list_len > 0 {
                self.listed = open.list();
            }
            self.runs += 1;
            self.last = Some(open);
        }
    }

    /// Lengthens the last run by `count` loop executions, rewriting its flag
    /// in place; the flag grows a byte each time the count crosses a 7-bit
    /// boundary, and the bytes after it, with any path list the run wrote
    /// out, move up.
    fn add_repeats(&mut self, count: u64) {
        let last = self.last.as_mut().expect(HEADER_FIRST);
        last.flag += count << flag::REPEATS;
        let len = varint_len(last.flag);
        if len > last.flag_len {
            let (at, grown) = (last.start + last.flag_len, len - last.flag_len);
            self.records.splice(at..at, std::iter::repeat_n(0, grown));
            last.flag_len = len;
            if self.listed.start >= at {
                self.listed = self.listed.start + grown..self.listed.end + grown;
            }
        }
        let mut value = last.flag;
        for byte in &mut self.records[last.start..last.start + len] {
            *byte = value as u8 | 0x80;
            value >>= 7;
        }
        self.records[last.start + len - 1] &= 0x7f;
    }
}

impl Visit for PackedWriter {
    /// Opens the record with a one-byte flag (`same_paths` and its repeats
    /// come when it closes, `has_targets` with its target count), and writes
    /// its entry and exit, and its depth, only when they differ from the
    /// last stored run's.
    fn loop_header(&mut self, header: &LoopHeader) {
        self.close();
        let before = self.last.map(|last| last.header);
        let same_loop = before.is_some_and(|before| before.same_loop(header));
        let same_depth = before.is_some_and(|before| before.nesting_depth == header.nesting_depth);
        let mut flag = u64::from(header.encoder_overflowed);
        if same_loop {
            flag |= flag::SAME_LOOP;
        }
        if same_depth {
            flag |= flag::SAME_DEPTH;
        }
        let start = self.records.len();
        self.records.push(flag as u8);
        if !same_loop {
            put_varint(&mut self.records, header.entry.into());
            put_varint(&mut self.records, header.exit.into());
        }
        if !same_depth {
            put_varint(&mut self.records, header.nesting_depth as u64);
        }
        let head_len = self.records.len() - start - 1;
        self.open = Some(Run { header: *header, start, flag_len: 1, flag, head_len, list_len: 0 });
    }

    fn paths(&mut self, count: usize) {
        let open = self.open.as_mut().expect(HEADER_FIRST);
        put_varint(&mut self.records, count as u64);
        open.list_len = varint_len(count as u64);
    }

    /// Writes the path's id after the ids before it, ahead of the
    /// iterations written so far, and its iterations last.
    fn path(&mut self, path: PathRecord) {
        let open = self.open.as_mut().expect(HEADER_FIRST);
        let (at, end) = (open.tail(), self.records.len());
        put_varint(&mut self.records, path.path_id.into());
        let id_len = self.records.len() - end;
        self.records[at..].rotate_right(id_len);
        open.list_len += id_len;
        put_varint(&mut self.records, path.iterations);
    }

    fn targets(&mut self, count: usize) {
        if count == 0 {
            return;
        }
        let open = self.open.as_mut().expect(HEADER_FIRST);
        open.flag |= flag::HAS_TARGETS;
        self.records[open.start] = open.flag as u8;
        put_varint(&mut self.records, count as u64);
    }

    fn target(&mut self, target: IndirectTargetRecord) {
        put_varint(&mut self.records, target.target.into());
        put_varint(&mut self.records, target.code.into());
    }

    fn repeats(&mut self, count: u32) {
        self.close();
        if count > 0 {
            self.add_repeats(count.into());
        }
    }
}

/// The flag varint that opens each stored record: `(repeats << 5) |
/// same_paths << 4 | same_depth << 3 | same_loop << 2 | has_targets << 1 |
/// encoder_overflowed`.
mod flag {
    /// The record's encoder overflowed.
    pub(super) const OVERFLOWED: u64 = 1;
    /// A target count and the targets end the record.
    pub(super) const HAS_TARGETS: u64 = 1 << 1;
    /// The record's entry and exit are those of the stored record before
    /// it, and are not written.
    pub(super) const SAME_LOOP: u64 = 1 << 2;
    /// The record's nesting depth is that of the stored record before it,
    /// and is not written.
    pub(super) const SAME_DEPTH: u64 = 1 << 3;
    /// The record's path ids, in order, are those of the stored record
    /// before it: neither its path count nor its ids are written.
    pub(super) const SAME_PATHS: u64 = 1 << 4;
    /// The shift of the run's repeats.
    pub(super) const REPEATS: u32 = 5;
}

/// The fixed fields of one loop record, ahead of its paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoopHeader {
    pub(crate) entry: u32,
    pub(crate) exit: u32,
    pub(crate) nesting_depth: usize,
    pub(crate) encoder_overflowed: bool,
}

impl LoopHeader {
    /// Whether `next` records the same loop: the same entry and exit.
    fn same_loop(&self, next: &LoopHeader) -> bool {
        (self.entry, self.exit) == (next.entry, next.exit)
    }
}

/// What a walk over `L` hands on, group by group, in the order the packed
/// form holds the fields: each stored record once, then how many more loop
/// executions its run stands for.  Each method ignores its argument by
/// default.
pub(crate) trait Visit {
    /// The number of stored records (runs).
    fn loops(&mut self, _runs: usize) {}
    /// The next record's fixed fields, entry, exit and depth included
    /// whether or not the packed record restates them.
    fn loop_header(&mut self, _header: &LoopHeader) {}
    /// The number of paths of the current record.
    fn paths(&mut self, _count: usize) {}
    /// One path of the current record, in order of first occurrence, its
    /// id included whether or not the packed record restates it.
    fn path(&mut self, _path: PathRecord) {}
    /// The number of indirect targets of the current record, 0 included.
    fn targets(&mut self, _count: usize) {}
    /// One indirect target of the current record.
    fn target(&mut self, _target: IndirectTargetRecord) {}
    /// The current record is complete, and repeats `count` more times: its
    /// run stands for `count + 1` identical consecutive loop executions.
    fn repeats(&mut self, _count: u32) {}
}

/// Hears nothing: walking with it only validates.
impl Visit for () {}

/// Checks that `bytes` are packed `L` as the writer writes it, allocating
/// nothing.
///
/// # Errors
///
/// As [`PackedMetadata::from_packed`].
pub(crate) fn validate(bytes: &[u8]) -> Result<(), serde::Error> {
    walk(bytes, &mut ()).map(drop)
}

/// Fewest packed bytes one stored record takes: its flag, when it inherits
/// its loop, its depth and an empty path list, and has no targets.
const LOOP_MIN_BYTES: usize = 1;

/// Fewest packed bytes one listed path, or one indirect target, takes: two
/// varints.
const PAIR_MIN_BYTES: usize = 2;

/// Fewest packed bytes one path of a record takes once its id is known: its
/// iterations.
const ITERATIONS_MIN_BYTES: usize = 1;

/// Reads packed `L` front to back, hands each field group of each stored
/// record to `visit` and returns the number of loop executions the runs
/// stand for.  Accepts only what [`PackedWriter`] writes: flags that state
/// `same_loop`, `same_depth`, `same_paths` and `has_targets` exactly, and
/// maximal runs that total at most `u32::MAX` loop executions.  Allocates
/// nothing itself: it compares each record's values with the one before
/// it, and keeps where the last path list written out is rather than a copy
/// of it.  Reading an inherited list again takes at most a few bytes per
/// path of the record, whose iterations take one byte or more, so the walk
/// is linear in the bytes.  It checks every count against the bytes left
/// before `visit` hears it, so a visitor may reserve for it.
///
/// # Errors
///
/// As [`PackedMetadata::from_packed`].
#[inline]
fn walk(bytes: &[u8], visit: &mut impl Visit) -> Result<u32, serde::Error> {
    let mut fields = Fields::new(bytes);
    let runs = fields.count(LOOP_MIN_BYTES)?;
    visit.loops(runs);
    let mut executions = 0u64;
    // The stored record before the current one: its fixed fields and the
    // bytes from its iterations on.
    let mut previous: Option<(LoopHeader, &[u8])> = None;
    // The path count and ids of the last record that wrote them out, which
    // every record since has inherited.
    let mut listed: &[u8] = &[];
    for _ in 0..runs {
        let flag = fields.varint()?;
        let repeats = flag >> flag::REPEATS;
        // At most `u32::MAX` plus `2^59`: no overflow.
        executions += repeats + 1;
        if executions > u32::MAX.into() {
            return Err(serde::Error::IntegerOverflow { value: executions });
        }
        let before = previous.map(|(before, _)| before);
        let (entry, exit) = inherit(
            flag & flag::SAME_LOOP != 0,
            before.map(|before| (before.entry, before.exit)),
            || Ok((fields.u32()?, fields.u32()?)),
        )?;
        let nesting_depth = inherit(
            flag & flag::SAME_DEPTH != 0,
            before.map(|before| before.nesting_depth),
            || fields.usize(),
        )?;
        let same_paths = flag & flag::SAME_PATHS != 0;
        listed = inherit(same_paths, before.map(|_| listed), || fields.path_list())?;
        let header = LoopHeader {
            entry,
            exit,
            nesting_depth,
            encoder_overflowed: flag & flag::OVERFLOWED != 0,
        };
        visit.loop_header(&header);
        let mut ids = Fields::new(listed);
        let paths = ids.u32()? as usize;
        fields.room(paths, ITERATIONS_MIN_BYTES)?;
        visit.paths(paths);
        let tail = fields.rest();
        for _ in 0..paths {
            visit.path(PathRecord { path_id: ids.u32()?, iterations: fields.varint()? });
        }
        let targets = match flag & flag::HAS_TARGETS {
            0 => 0,
            _ => match fields.count(PAIR_MIN_BYTES)? {
                0 => return Err(serde::Error::NonCanonicalRecord),
                targets => targets,
            },
        };
        visit.targets(targets);
        for _ in 0..targets {
            visit.target(IndirectTargetRecord { target: fields.u32()?, code: fields.u32()? });
        }
        // Records with the same path ids are equal when their fixed fields
        // and the bytes from their iterations on are.
        let current = Some((header, &tail[..tail.len() - fields.rest().len()]));
        if same_paths && current == previous {
            return Err(serde::Error::NonMaximalRun);
        }
        previous = current;
        // At most `executions`, which fits a `u32`.
        visit.repeats(repeats as u32);
    }
    fields.finish()?;
    Ok(executions as u32)
}

/// A value a record inherits from the stored record before it when its
/// flag bit is `set`, and reads otherwise.  A set bit needs a record
/// before, whose value is `before`; a value read must differ from it.
fn inherit<T: Copy + PartialEq>(
    set: bool,
    before: Option<T>,
    read: impl FnOnce() -> Result<T, serde::Error>,
) -> Result<T, serde::Error> {
    match (set, before) {
        (true, Some(value)) => Ok(value),
        (true, None) => Err(serde::Error::NonCanonicalRecord),
        (false, before) => match read()? {
            value if before == Some(value) => Err(serde::Error::NonCanonicalRecord),
            value => Ok(value),
        },
    }
}

/// The streaming writer of the fixed-width layout, behind the loop count
/// [`PackedMetadata::to_bytes`] fills in: each field group the walk reads,
/// at its fixed width, each path with its position as its first occurrence,
/// and each record once more per repeat of its run.  The reader bounds every
/// count and `u32` field by `u32::MAX`, so the casts below are lossless.
struct FixedWidth<'s> {
    out: &'s mut Vec<u8>,
    /// Where the current record starts in `out`.
    record: usize,
    /// The next path's position in the current record.
    path: u64,
}

impl Visit for FixedWidth<'_> {
    fn loop_header(&mut self, header: &LoopHeader) {
        self.record = self.out.len();
        self.out.extend_from_slice(&header.entry.to_le_bytes());
        self.out.extend_from_slice(&header.exit.to_le_bytes());
        self.out.extend_from_slice(&(header.nesting_depth as u64).to_le_bytes());
        self.out.push(header.encoder_overflowed.into());
    }

    fn paths(&mut self, count: usize) {
        self.path = 0;
        self.out.extend_from_slice(&(count as u32).to_le_bytes());
    }

    fn path(&mut self, path: PathRecord) {
        self.out.extend_from_slice(&path.path_id.to_le_bytes());
        self.out.extend_from_slice(&self.path.to_le_bytes());
        self.out.extend_from_slice(&path.iterations.to_le_bytes());
        self.path += 1;
    }

    fn targets(&mut self, count: usize) {
        self.out.extend_from_slice(&(count as u32).to_le_bytes());
    }

    fn target(&mut self, target: IndirectTargetRecord) {
        self.out.extend_from_slice(&target.target.to_le_bytes());
        self.out.extend_from_slice(&target.code.to_le_bytes());
    }

    fn repeats(&mut self, count: u32) {
        let record = self.record..self.out.len();
        self.out.reserve(record.len() * count as usize);
        for _ in 0..count {
            self.out.extend_from_within(record.clone());
        }
    }
}

/// The length of the fixed-width layout behind its loop count, summed as
/// [`FixedWidth`] would write it: each stored record's fixed widths, once
/// per loop execution of its run.
#[derive(Default)]
struct FixedWidthLen {
    /// The records counted so far.
    total: usize,
    /// The current record's length.
    record: usize,
}

impl Visit for FixedWidthLen {
    fn loop_header(&mut self, _header: &LoopHeader) {
        // entry, exit, depth, overflowed
        self.record = 4 + 4 + 8 + 1;
    }

    fn paths(&mut self, count: usize) {
        // count, then per path its id, first occurrence and iterations
        self.record += 4 + count * (4 + 8 + 8);
    }

    fn targets(&mut self, count: usize) {
        // count, then per target the target and its code
        self.record += 4 + count * (4 + 4);
    }

    fn repeats(&mut self, count: u32) {
        self.total += self.record * (count as usize + 1);
    }
}

/// Bytes `value` takes as a LEB128 varint.
pub(crate) fn varint_len(value: u64) -> usize {
    (u64::BITS - (value | 1).leading_zeros()).div_ceil(7) as usize
}

/// Appends the LEB128 varint of `value` to `out`: seven bits per byte, low
/// bits first, the top bit set on every byte but the last.
pub(crate) fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads packed bytes front to back, accepting only canonical varints.
#[derive(Debug)]
pub(crate) struct Fields<'a>(&'a [u8]);

impl<'a> Fields<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self(bytes)
    }

    /// The next varint, in its shortest encoding.
    #[inline]
    pub(crate) fn varint(&mut self) -> Result<u64, serde::Error> {
        // Most values of `L` take one byte.
        if let [byte @ 0..=0x7f, rest @ ..] = self.0 {
            self.0 = rest;
            return Ok(u64::from(*byte));
        }
        self.long_varint()
    }

    /// [`Fields::varint`] for a value of two bytes or more.
    #[inline]
    fn long_varint(&mut self) -> Result<u64, serde::Error> {
        let mut value = 0u64;
        for (i, &byte) in self.0.iter().take(10).enumerate() {
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte < 0x80 {
                // A zero last byte after the first adds nothing, and the
                // tenth byte holds bit 63 alone: either way the encoding is
                // not the shortest of a `u64`.
                if (byte == 0 && i > 0) || (i == 9 && byte > 1) {
                    return Err(serde::Error::NonCanonicalVarint);
                }
                self.0 = &self.0[i + 1..];
                return Ok(value);
            }
        }
        if self.0.len() >= 10 {
            return Err(serde::Error::NonCanonicalVarint);
        }
        // Every byte left continues the varint.
        Err(serde::Error::UnexpectedEof { needed: self.0.len() + 1, remaining: self.0.len() })
    }

    /// The next varint as a `u32` field.
    fn u32(&mut self) -> Result<u32, serde::Error> {
        let value = self.varint()?;
        u32::try_from(value).map_err(|_| serde::Error::IntegerOverflow { value })
    }

    /// The next varint as a `usize` field.
    fn usize(&mut self) -> Result<usize, serde::Error> {
        let value = self.varint()?;
        usize::try_from(value).map_err(|_| serde::Error::IntegerOverflow { value })
    }

    /// A `u32` count of records, each at least `min_bytes` long, checked
    /// against the bytes left.
    fn count(&mut self, min_bytes: usize) -> Result<usize, serde::Error> {
        let count = self.u32()? as usize;
        self.room(count, min_bytes)?;
        Ok(count)
    }

    /// Succeeds when the bytes left can hold `count` records of at least
    /// `min_bytes` each.
    fn room(&self, count: usize, min_bytes: usize) -> Result<(), serde::Error> {
        let needed = count.saturating_mul(min_bytes);
        if needed > self.0.len() {
            return Err(serde::Error::UnexpectedEof { needed, remaining: self.0.len() });
        }
        Ok(())
    }

    /// A path count and the path ids it counts, as written.
    fn path_list(&mut self) -> Result<&'a [u8], serde::Error> {
        let start = self.0;
        for _ in 0..self.count(PAIR_MIN_BYTES)? {
            self.u32()?;
        }
        Ok(&start[..start.len() - self.0.len()])
    }

    /// The next `len` bytes, unread.
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], serde::Error> {
        if len > self.0.len() {
            return Err(serde::Error::UnexpectedEof { needed: len, remaining: self.0.len() });
        }
        let (head, rest) = self.0.split_at(len);
        self.0 = rest;
        Ok(head)
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.0
    }

    /// Succeeds when every byte was read.
    fn finish(&self) -> Result<(), serde::Error> {
        match self.0.len() {
            0 => Ok(()),
            extra => Err(serde::Error::TrailingBytes { extra }),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::Error;

    fn sample() -> Metadata {
        Metadata {
            loops: vec![
                LoopRecord {
                    entry: 0x1010,
                    exit: 0x1024,
                    nesting_depth: 1,
                    paths: vec![
                        PathRecord { path_id: 0b1011, iterations: 5 },
                        PathRecord { path_id: 0b10011, iterations: 2 },
                    ],
                    indirect_targets: vec![IndirectTargetRecord { target: 0x2000, code: 1 }],
                    encoder_overflowed: false,
                },
                LoopRecord {
                    entry: 0x1040,
                    exit: 0x1050,
                    nesting_depth: 2,
                    paths: vec![PathRecord { path_id: 0b11, iterations: 9 }],
                    indirect_targets: vec![],
                    encoder_overflowed: true,
                },
            ],
        }
    }

    /// The fixed-width layout written field by field from the decoded view:
    /// the oracle the transcoding writer is held to.
    pub(crate) fn fixed_width(metadata: &Metadata) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(metadata.loops.len() as u32).to_le_bytes());
        for l in &metadata.loops {
            out.extend_from_slice(&l.entry.to_le_bytes());
            out.extend_from_slice(&l.exit.to_le_bytes());
            out.extend_from_slice(&(l.nesting_depth as u64).to_le_bytes());
            out.push(u8::from(l.encoder_overflowed));
            out.extend_from_slice(&(l.paths.len() as u32).to_le_bytes());
            for (first_occurrence, p) in l.paths.iter().enumerate() {
                out.extend_from_slice(&p.path_id.to_le_bytes());
                out.extend_from_slice(&(first_occurrence as u64).to_le_bytes());
                out.extend_from_slice(&p.iterations.to_le_bytes());
            }
            out.extend_from_slice(&(l.indirect_targets.len() as u32).to_le_bytes());
            for t in &l.indirect_targets {
                out.extend_from_slice(&t.target.to_le_bytes());
                out.extend_from_slice(&t.code.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn aggregate_counts() {
        let m = sample();
        assert_eq!(m.loop_count(), 2);
        assert_eq!(m.pack().loop_count(), 2);
        assert_eq!(m.total_iterations(), 16);
        assert_eq!(m.total_distinct_paths(), 3);
        assert_eq!(m.loops[0].total_iterations(), 7);
        assert_eq!(m.loops[0].distinct_paths(), 2);
    }

    #[test]
    fn serialisation_is_deterministic_and_self_consistent() {
        let m = sample().pack();
        let a = m.to_bytes();
        let b = m.to_bytes();
        assert_eq!(a, b);
        assert_eq!(m.size_bytes(), a.len());
        // Header + 2 loop headers (entry + exit + depth:u64 + overflowed +
        // path count + target count) + 3 paths (id + first_occurrence:u64 +
        // iterations) + 1 target.
        let expected = 4 + 2 * (4 + 4 + 8 + 1 + 4 + 4) + 3 * (4 + 8 + 8) + (4 + 4);
        assert_eq!(a.len(), expected);
        assert_eq!(a, fixed_width(&sample()));
    }

    #[test]
    fn different_metadata_serialises_differently() {
        let a = sample();
        let mut b = sample();
        b.loops[0].paths[0].iterations += 1;
        assert_ne!(a.pack().to_bytes(), b.pack().to_bytes());
    }

    #[test]
    fn empty_metadata_is_four_bytes() {
        assert_eq!(Metadata::new().pack().to_bytes(), vec![0, 0, 0, 0]);
        assert_eq!(Metadata::new().pack().size_bytes(), 4);
    }

    #[test]
    fn size_grows_with_paths_and_targets() {
        let base = sample().pack().size_bytes();
        let mut more = sample();
        more.loops[0].paths.push(PathRecord { path_id: 0b111, iterations: 1 });
        more.loops[1].indirect_targets.push(IndirectTargetRecord { target: 0x3000, code: 2 });
        assert!(more.pack().size_bytes() > base);
    }

    /// Mostly small values, with zero, the type's maximum and arbitrary
    /// (mostly many-byte) values mixed in.
    fn value(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), 0..300u64, Just(max), any::<u64>().prop_map(move |v| v & max)]
    }

    /// Arbitrary metadata: no loops or up to three distinct-or-not records,
    /// each with up to three paths and two indirect targets, either overflow
    /// flag, and every field anywhere in its range, its maximum included;
    /// each record executed up to three times in a row, and about half of
    /// them taking the loop (entry and exit), half the depth and half the
    /// path ids of the record before.
    pub(crate) fn arbitrary() -> impl Strategy<Value = Metadata> {
        let u32_max = u64::from(u32::MAX);
        let path = (value(u32_max), value(u64::MAX))
            .prop_map(|(id, n)| PathRecord { path_id: id as u32, iterations: n });
        let target = (value(u32_max), value(u32_max)).prop_map(|(target, code)| {
            IndirectTargetRecord { target: target as u32, code: code as u32 }
        });
        let one_loop = (
            (value(u32_max), value(u32_max), value(u64::MAX)),
            proptest::collection::vec(path, 0..4),
            proptest::collection::vec(target, 0..3),
            any::<bool>(),
        )
            .prop_map(
                |((entry, exit, depth), paths, indirect_targets, encoder_overflowed)| LoopRecord {
                    entry: entry as u32,
                    exit: exit as u32,
                    nesting_depth: depth as usize,
                    paths,
                    indirect_targets,
                    encoder_overflowed,
                },
            );
        let inherits = (any::<bool>(), any::<bool>(), any::<bool>());
        proptest::collection::vec((one_loop, 1..4usize, inherits), 0..4).prop_map(|runs| {
            let mut loops: Vec<LoopRecord> = Vec::new();
            for (mut record, n, inherits) in runs {
                if let Some(before) = loops.last() {
                    inherit(&mut record, before, inherits);
                }
                loops.extend(std::iter::repeat_n(record, n));
            }
            Metadata { loops }
        })
    }

    /// `record` with the loop, the depth and the path ids of `before`, as
    /// `(same_loop, same_depth, same_paths)` pick; inherited paths keep
    /// `record`'s iterations where it has as many paths.
    fn inherit(
        record: &mut LoopRecord,
        before: &LoopRecord,
        (loop_, depth, paths): (bool, bool, bool),
    ) {
        if loop_ {
            (record.entry, record.exit) = (before.entry, before.exit);
        }
        if depth {
            record.nesting_depth = before.nesting_depth;
        }
        if paths {
            let own = |i: usize| record.paths.get(i).map(|p| p.iterations);
            record.paths = (before.paths.iter().enumerate())
                .map(|(i, p)| PathRecord {
                    path_id: p.path_id,
                    iterations: own(i).unwrap_or(p.iterations),
                })
                .collect();
        }
    }

    /// Most loop executions a test decodes: a one-byte edit can turn a
    /// many-byte varint into a flag that claims billions.
    const DECODABLE: usize = 1 << 12;

    /// `bytes`, when the reader accepts them as packed `L` whose runs stand
    /// for few enough loop executions to decode.
    pub(crate) fn decodable(bytes: &[u8]) -> Option<PackedMetadata> {
        PackedMetadata::from_packed(bytes).ok().filter(|packed| packed.loop_count() <= DECODABLE)
    }

    /// Number of maximal runs of equal consecutive records in `metadata`.
    fn maximal_runs(metadata: &Metadata) -> usize {
        metadata.loops.chunk_by(|a, b| a == b).count()
    }

    /// An honest blob with one byte replaced, dropped or inserted, as
    /// `edit`, `at` and `byte` pick.
    pub(crate) fn mutated(blob: &[u8], edit: u8, at: usize, byte: u8) -> Vec<u8> {
        let mut blob = blob.to_vec();
        let at = at % (blob.len() + 1);
        match edit % 3 {
            0 if at < blob.len() => blob[at] = byte,
            1 if at < blob.len() => {
                blob.remove(at);
            }
            _ => blob.insert(at, byte),
        }
        blob
    }

    /// The sample in the version-5 grammar: the run count, then per record
    /// its flag, entry, exit, depth, path count, path ids, iterations and,
    /// for the first record only, its one target.
    #[test]
    fn packed_form_follows_the_version_5_grammar() {
        let m = sample();
        #[rustfmt::skip]
        let expected = [
            2,
            0b010, 0x90, 0x20, 0xa4, 0x20, 1, 2, 0b1011, 0b10011, 5, 2, 1, 0x80, 0x40, 1,
            0b001, 0xc0, 0x20, 0xd0, 0x20, 2, 1, 0b11, 9,
        ];
        let packed = m.pack();
        assert_eq!(packed.as_bytes(), expected);
        assert_eq!(packed.packed_len(), expected.len());
        assert_eq!(Metadata::from_packed(&expected), Ok(m.clone()));
        assert_eq!(PackedMetadata::from_packed(&expected), Ok(packed.clone()));
        assert_eq!(packed.decode(), m);
        // The codec form is the packed form behind a `u32` length.
        let wire = serde::to_bytes(&packed).unwrap();
        assert_eq!(wire[..4], (expected.len() as u32).to_le_bytes());
        assert_eq!(wire[4..], expected);
        assert_eq!(Metadata::new().pack().as_bytes(), [0]);
    }

    #[test]
    fn every_rejection_has_its_typed_error() {
        let decode = |bytes: &[u8]| Metadata::from_packed(bytes).unwrap_err();
        // Overlong: a zero last byte (here the flag's), or a tenth byte
        // above bit 63 (here a path's iterations).
        assert_eq!(decode(&[0x80, 0x00]), Error::NonCanonicalVarint);
        assert_eq!(decode(&[1, 0x81, 0x00, 0, 0, 0, 0, 0]), Error::NonCanonicalVarint);
        let wide = [[0xff; 9].as_slice(), &[0x02]].concat();
        assert_eq!(
            decode(&[&[1, 0, 1, 1, 0, 1, 1][..], &wide].concat()),
            Error::NonCanonicalVarint
        );
        // A `u32` field or count above `u32::MAX`.
        let entry = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert_eq!(
            decode(&[&[1, 0][..], &entry, &[0, 1, 0]].concat()),
            Error::IntegerOverflow { value: 1 << 32 }
        );
        assert_eq!(decode(&entry), Error::IntegerOverflow { value: 1 << 32 });
        // `record` is loop (0, 0) at depth 1 with no paths.  A second record
        // may inherit all three values, and then differs in its overflow
        // flag alone.
        let record = [0, 0, 0, 1, 0];
        let two = |second: &[u8]| [&[2][..], &record, second].concat();
        assert!(Metadata::from_packed(&two(&[0b11101])).is_ok());
        // A flag that misstates its record: each `same_*` bit on the first
        // record ...
        assert_eq!(decode(&[1, 0b100, 1, 0]), Error::NonCanonicalRecord);
        assert_eq!(decode(&[1, 0b1000, 0, 0, 0]), Error::NonCanonicalRecord);
        assert_eq!(decode(&[1, 0b10000, 0, 0, 1]), Error::NonCanonicalRecord);
        // ... each clear although the record restates the value before it:
        // the entry and exit, the depth, the (empty) path list ...
        assert_eq!(decode(&two(&[0b11001, 0, 0])), Error::NonCanonicalRecord);
        assert_eq!(decode(&two(&[0b10101, 1])), Error::NonCanonicalRecord);
        assert_eq!(decode(&two(&[0b01101, 0])), Error::NonCanonicalRecord);
        // ... and `has_targets` before a target count of 0.
        assert_eq!(decode(&[1, 0b010, 0, 0, 1, 0, 0]), Error::NonCanonicalRecord);
        assert!(Metadata::from_packed(&[1, 0, 0, 0, 1, 0]).is_ok());
        // A bit set although the value differs drops the value, and the
        // record reads the one before it instead: a second record at
        // (5, 0), at depth 2 or with one path becomes the first record
        // again, a run that is not maximal; one that also overflowed leaves
        // the iteration of its path unread.
        assert!(Metadata::from_packed(&two(&[0b11000, 5, 0])).is_ok());
        assert!(Metadata::from_packed(&two(&[0b10100, 2])).is_ok());
        assert!(Metadata::from_packed(&two(&[0b01100, 1, 7, 1])).is_ok());
        assert_eq!(decode(&two(&[0b11100])), Error::NonMaximalRun);
        assert_eq!(decode(&two(&[0b11101, 1])), Error::TrailingBytes { extra: 1 });
        // A stored record equal to the one before it, whatever their runs.
        assert_eq!(decode(&two(&[(1 << 5) | 0b11100])), Error::NonMaximalRun);
        // Runs that total more than `u32::MAX` loop executions, in one run
        // or over two.
        let run = |repeats: u64| {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, repeats << 5);
            bytes.extend([0, 0, 1, 0]);
            bytes
        };
        let over = u64::from(u32::MAX) + 1;
        assert_eq!(
            decode(&[&[1][..], &run(over - 1)].concat()),
            Error::IntegerOverflow { value: over }
        );
        let other = [0, 1, 0, 2, 1, 1, 1];
        assert_eq!(
            decode(&[&[2][..], &other, &run(over - 2)].concat()),
            Error::IntegerOverflow { value: over }
        );
        assert_eq!(
            decode(&[&[1][..], &run(u64::MAX >> 5)].concat()),
            Error::IntegerOverflow { value: 1 << 59 }
        );
        // The most runs may claim, read without expanding them.
        let most = PackedMetadata::from_packed(&[&[1][..], &run(over - 2)].concat()).unwrap();
        assert_eq!((most.run_count(), most.loop_count()), (1, u32::MAX as usize));
        let most = PackedMetadata::from_packed(&[&[2][..], &other, &run(over - 3)].concat());
        assert_eq!(most.unwrap().loop_count(), u32::MAX as usize);
        // A flag of 32 is a record that repeats once.
        let repeated = Metadata::from_packed(&[1, 32, 0, 0, 1, 0]).unwrap();
        assert_eq!(repeated.loops.len(), 2);
        assert_eq!(repeated.loops[0], repeated.loops[1]);
        // A count the bytes left cannot hold: 5 records need at least 5.
        assert_eq!(decode(&[5, 0, 0, 0, 0]), Error::UnexpectedEof { needed: 5, remaining: 4 });
        // Truncation at every cut, and trailing bytes.
        let packed = sample().pack();
        let packed = packed.as_bytes();
        for cut in 0..packed.len() {
            assert!(
                matches!(decode(&packed[..cut]), Error::UnexpectedEof { .. }),
                "cut at {cut}: {:?}",
                decode(&packed[..cut])
            );
        }
        assert_eq!(decode(&[packed, &[0]].concat()), Error::TrailingBytes { extra: 1 });
    }

    /// Equal consecutive records are stored once, with their repeats in the
    /// flag varint, which grows a byte each time the count crosses a 7-bit
    /// boundary; the writer rewrites it in place.
    #[test]
    fn equal_consecutive_records_travel_as_one_run() {
        let record = sample().loops[1].clone();
        let other = sample().loops[0].clone();
        for n in [1, 2, 4, 5, 511, 512, 513, 65_536, 65_537] {
            let view = Metadata { loops: [vec![record.clone(); n], vec![other.clone()]].concat() };
            let packed = view.pack();
            assert_eq!((packed.run_count(), packed.loop_count()), (2, n + 1), "{n}");
            let flag = ((n as u64 - 1) << 5) | 1;
            let mut expected = vec![2];
            put_varint(&mut expected, flag);
            expected.extend([0xc0, 0x20, 0xd0, 0x20, 2, 1, 0b11, 9]);
            assert_eq!(packed.as_bytes()[..expected.len()], expected, "{n}");
            assert_eq!(packed.decode(), view, "{n}");
            assert_eq!(packed.to_bytes(), fixed_width(&view), "{n}");
        }
        // A record that does not repeat costs one byte of flag.
        assert_eq!(sample().pack().packed_len(), 25);
    }

    /// A record writes neither the loop, nor the depth, nor the path ids of
    /// the record before it, and runs of either one still fold.
    #[test]
    fn records_omit_the_values_of_the_record_before_them() {
        let first = sample().loops[1].clone();
        let mut second = first.clone();
        second.paths[0].iterations = 10;
        let view = Metadata { loops: vec![first.clone(), second.clone(), second, first] };
        let packed = view.pack();
        #[rustfmt::skip]
        let expected = [
            3,
            0b001, 0xc0, 0x20, 0xd0, 0x20, 2, 1, 0b11, 9,
            (1 << 5) | 0b11101, 10,
            0b11101, 9,
        ];
        assert_eq!(packed.as_bytes(), expected);
        assert_eq!(packed.decode(), view);
        assert_eq!(packed.to_bytes(), fixed_width(&view));
    }

    /// A record inherits the path ids of the last record that wrote them
    /// out, whatever its loop and depth, and the three bits are
    /// independent: a record of another loop may keep the depth and the
    /// path ids before it, and one of the same loop may change both.
    #[test]
    fn a_path_list_holds_until_a_record_writes_another() {
        let path = |path_id, iterations| PathRecord { path_id, iterations };
        let record = |entry, nesting_depth, paths: &[PathRecord]| LoopRecord {
            entry,
            exit: entry + 8,
            nesting_depth,
            paths: paths.to_vec(),
            indirect_targets: Vec::new(),
            encoder_overflowed: false,
        };
        let view = Metadata {
            loops: vec![
                record(16, 1, &[path(3, 1), path(5, 2)]),
                record(32, 1, &[path(3, 2), path(5, 2)]),
                record(32, 2, &[path(5, 4), path(3, 1)]),
                record(32, 2, &[path(5, 1), path(3, 1)]),
                record(16, 1, &[path(5, 1), path(3, 9)]),
                record(16, 1, &[path(3, 1), path(5, 2)]),
            ],
        };
        let packed = view.pack();
        #[rustfmt::skip]
        let expected = [
            6,
            0, 16, 24, 1, 2, 3, 5, 1, 2,
            0b11000, 32, 40, 2, 2,
            0b00100, 2, 2, 5, 3, 4, 1,
            0b11100, 1, 1,
            0b10000, 16, 24, 1, 1, 9,
            0b01100, 2, 3, 5, 1, 2,
        ];
        assert_eq!(packed.as_bytes(), expected);
        assert_eq!(packed.decode(), view);
        assert_eq!(packed.to_bytes(), fixed_width(&view));
        let mut writer = PackedWriter::default();
        packed.visit(&mut writer);
        assert_eq!(writer.finish(), packed);
    }

    #[test]
    fn hostile_counts_are_refused_before_anything_is_reserved() {
        let count = [0xff, 0xff, 0xff, 0xff, 0x0f];
        let needed = u32::MAX as usize * LOOP_MIN_BYTES;
        assert_eq!(
            Metadata::from_packed(&count),
            Err(Error::UnexpectedEof { needed, remaining: 0 })
        );
        // The same count of paths inside a loop.
        let blob = [&[1, 0, 0, 0, 1][..], &count, &[0]].concat();
        let needed = u32::MAX as usize * PAIR_MIN_BYTES;
        assert_eq!(
            Metadata::from_packed(&blob),
            Err(Error::UnexpectedEof { needed, remaining: 1 })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// `decode(pack(m)) == m`, views with equal consecutive records
        /// included; `pack` writes one run per maximal run of the view, and
        /// a walk handing the runs to a writer writes the same bytes.
        #[test]
        fn packed_form_round_trips(metadata in arbitrary()) {
            let packed = metadata.pack();
            prop_assert_eq!(Metadata::from_packed(packed.as_bytes()), Ok(metadata.clone()));
            prop_assert_eq!(packed.decode(), metadata.clone());
            prop_assert_eq!(packed.run_count(), maximal_runs(&metadata));
            prop_assert_eq!(packed.loop_count(), metadata.loop_count());
            let mut writer = PackedWriter::default();
            packed.visit(&mut writer);
            prop_assert_eq!(writer.finish(), packed.clone());
            let wire = serde::to_bytes(&packed).unwrap();
            prop_assert_eq!(serde::from_bytes::<PackedMetadata>(&wire), Ok(packed));
        }

        /// Equal packed bytes exactly when the views are equal: a view and
        /// its copy pack alike, and one record repeated, dropped, edited,
        /// with its paths reversed or with every path id changed packs alike
        /// only when the edit left the view as it was.
        #[test]
        fn packed_bytes_are_equal_exactly_when_views_are(
            metadata in arbitrary(),
            other in arbitrary(),
            at in any::<usize>(),
            edit in 0..5u8,
        ) {
            prop_assert_eq!(metadata.pack() == other.pack(), metadata == other);
            prop_assert_eq!(metadata.clone().pack(), metadata.pack());
            if metadata.loops.is_empty() {
                return Ok(());
            }
            let at = at % metadata.loops.len();
            let mut edited = metadata.clone();
            match edit {
                0 => edited.loops.insert(at, metadata.loops[at].clone()),
                1 => {
                    edited.loops.remove(at);
                }
                2 => edited.loops[at].nesting_depth ^= 1,
                3 => edited.loops[at].paths.reverse(),
                _ => edited.loops[at].paths.iter_mut().for_each(|p| p.path_id ^= 1),
            }
            prop_assert_eq!(edited.pack() == metadata.pack(), edited == metadata);
        }

        /// A blob the reader accepts is the writer's output for what it
        /// decoded: one byte of an honest blob replaced, dropped or
        /// inserted either fails or still re-encodes to the blob.
        #[test]
        fn accepted_blobs_re_encode_to_themselves(
            metadata in arbitrary(),
            edit in 0..3u8,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let blob = mutated(metadata.pack().as_bytes(), edit, at, byte);
            if let Some(packed) = decodable(&blob) {
                prop_assert_eq!(packed.decode().pack().as_bytes().to_vec(), blob);
            }
        }

        /// The validating reader and the decoding one are one walk: on an
        /// honest blob and on every one-byte edit of it, both accept with
        /// equal metadata, or both fail with the same typed error.
        #[test]
        fn both_readers_accept_and_reject_the_same_bytes(
            metadata in arbitrary(),
            edit in 0..4u8,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let honest = metadata.pack();
            let blob = if edit == 3 {
                honest.as_bytes().to_vec()
            } else {
                mutated(honest.as_bytes(), edit, at, byte)
            };
            let validated = PackedMetadata::from_packed(&blob);
            if validated.is_ok() && decodable(&blob).is_none() {
                return Ok(());
            }
            let decoded = Metadata::from_packed(&blob);
            match (&validated, &decoded) {
                (Ok(packed), Ok(view)) => {
                    prop_assert_eq!(packed.as_bytes(), &blob[..]);
                    prop_assert_eq!(&packed.decode(), view);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "readers disagree: {:?} vs {:?}", validated, decoded),
            }
        }

        /// The transcoded fixed-width layout is the one the decoded view writes
        /// field by field, and `size_bytes` is its length, on arbitrary
        /// metadata and on every accepted one-byte edit of it.
        #[test]
        fn transcoding_writes_the_fixed_width_layout_of_the_view(
            metadata in arbitrary(),
            edit in 0..3u8,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let honest = metadata.pack();
            let edited = decodable(&mutated(honest.as_bytes(), edit, at, byte));
            for packed in std::iter::once(honest).chain(edited) {
                let layout = fixed_width(&packed.decode());
                prop_assert_eq!(packed.to_bytes(), layout.clone());
                prop_assert_eq!(packed.size_bytes(), layout.len());
            }
        }
    }
}
