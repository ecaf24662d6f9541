//! Loop auxiliary metadata `L` (⑧⑨⑩ in Fig. 3, §5.1 "Loop metadata").
//!
//! The metadata generator assembles, per executed loop, the unique loop path
//! encodings in order of first occurrence, the number of iterations of each path and
//! the indirect branch targets encountered in the loop.  `L` is appended to the final
//! hash value `A` and covered by the attestation signature; the verifier uses it to
//! reconstruct (and judge) the compressed part of the execution path.
//!
//! `L` has two byte forms.  [`Metadata::to_bytes`] is the fixed-width layout
//! the signature covers.  [`Metadata::to_packed`] transcodes it losslessly to
//! LEB128 varints, about a quarter of the bytes; that packed form is the one
//! the wire, the reference database, snapshots and the verifier's verdict
//! cache carry, and [`Metadata::from_packed`] reads it back, accepting only
//! what the writer produces.

/// One indirect-branch target observed inside a loop, with the n-bit code the CAM
/// assigned to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndirectTargetRecord {
    /// The 32-bit target address.
    pub target: u32,
    /// The code used for it inside path IDs (0 means the CAM overflowed).
    pub code: u32,
}

/// One unique path through a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathRecord {
    /// The path ID (sentinel-prefixed encoding; 0 if the encoder overflowed).
    pub path_id: u32,
    /// Zero-based index of this path's first occurrence within the loop execution.
    pub first_occurrence: usize,
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

/// The auxiliary metadata `L` of one attested execution.
///
/// Its codec form is the packed form ([`Metadata::to_packed`]) behind a
/// `u32` length prefix.
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

    /// Deterministic fixed-width encoding of the metadata: the form covered by
    /// the attestation signature.  The wire carries its lossless transcoding,
    /// [`Metadata::to_packed`], and the verifier rebuilds this form from the
    /// decoded struct to check the signature.
    ///
    /// Layout (all little-endian):
    /// `loop_count:u32` then per loop: `entry:u32, exit:u32, depth:u64,
    /// overflowed:u8, path_count:u32, {path_id:u32, first_occurrence:u64,
    /// iterations:u64}*, target_count:u32, {target:u32, code:u32}*`.
    ///
    /// The `usize` fields (`nesting_depth`, `first_occurrence`) are encoded at
    /// their full width, matching the wire codec (which carries `usize` as
    /// `u64`).  This must stay injective over everything the wire can decode:
    /// an earlier u32 truncation here meant two distinct wire reports shared
    /// one signature, so an attacker flipping a high byte of either field
    /// produced an *authenticated* `MetadataMismatch` that spent the live
    /// session — a remote denial of service the wire fuzzer
    /// (`tests/fuzz_wire_net.rs`) caught on its first full run.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.loops.len() as u32).to_le_bytes());
        for l in &self.loops {
            out.extend_from_slice(&l.entry.to_le_bytes());
            out.extend_from_slice(&l.exit.to_le_bytes());
            out.extend_from_slice(&(l.nesting_depth as u64).to_le_bytes());
            out.push(u8::from(l.encoder_overflowed));
            out.extend_from_slice(&(l.paths.len() as u32).to_le_bytes());
            for p in &l.paths {
                out.extend_from_slice(&p.path_id.to_le_bytes());
                out.extend_from_slice(&(p.first_occurrence as u64).to_le_bytes());
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

    /// Size of the signed fixed-width layout ([`Metadata::to_bytes`]) in bytes —
    /// the quantity experiment E7 sweeps ("the length of the auxiliary metadata
    /// that must be sent to V depends on the number of loops executed, the
    /// number of different paths per loop, and the number of indirect branch
    /// targets", §6.1).  The wire carries a lossless varint transcoding of that
    /// layout ([`Metadata::packed_len`] bytes), which grows with the same three
    /// counts and also with the logarithm of the values recorded.
    pub fn size_bytes(&self) -> usize {
        self.to_bytes().len()
    }

    /// The packed form of the metadata: every integer [`Metadata::to_bytes`]
    /// signs, in the same order (loop count; per loop its entry, exit, depth,
    /// overflow flag and path count, each path's id, first occurrence and
    /// iterations, its target count, each target and code), as a LEB128
    /// varint.  Each value takes one byte per 7 significant bits, so the
    /// counts, flags and small addresses that dominate `L` shrink to a byte
    /// or two.  [`Metadata::from_packed`] inverts it.
    pub fn to_packed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_packed(&mut out);
        out
    }

    /// Length of [`Metadata::to_packed`] in bytes, computed without writing it.
    pub fn packed_len(&self) -> usize {
        let mut len = 0;
        for_each_field(self, |value| {
            len += varint_len(value);
            true
        });
        len
    }

    /// Appends the packed form to `out`.  The one writer of the packed form:
    /// [`Metadata::to_packed`], the codec, the reference database's records
    /// and the verdict cache's keys all go through it.
    pub(crate) fn write_packed(&self, out: &mut Vec<u8>) {
        for_each_field(self, |value| {
            put_varint(out, value);
            true
        });
    }

    /// Reads the packed form back, accepting only what
    /// [`Metadata::to_packed`] writes, so that one packed form belongs to one
    /// signed form.  Allocates at most a small multiple of `bytes.len()`:
    /// every count is checked against the bytes left before anything is
    /// reserved for it.
    ///
    /// # Errors
    ///
    /// Never panics; returns
    /// * [`serde::Error::NonCanonicalVarint`] for a varint longer than its
    ///   value needs, or wider than 64 bits;
    /// * [`serde::Error::IntegerOverflow`] for a value above `u32::MAX` in a
    ///   field the signed form holds as a `u32` (addresses, path ids, codes,
    ///   counts), or above `usize::MAX` in a `usize` field;
    /// * [`serde::Error::InvalidBool`] for an overflow flag other than 0 or 1;
    /// * [`serde::Error::UnexpectedEof`] for truncation, or for a count of
    ///   records that the bytes left cannot hold;
    /// * [`serde::Error::TrailingBytes`] for bytes after the last loop.
    pub fn from_packed(bytes: &[u8]) -> Result<Self, serde::Error> {
        let mut fields = Fields::new(bytes);
        let loops = fields.records(LOOP_MIN_BYTES, |f| {
            let (entry, exit, nesting_depth) = (f.u32()?, f.u32()?, f.usize()?);
            let encoder_overflowed = f.flag()?;
            let paths = f.records(3, |f| {
                let (path_id, first_occurrence) = (f.u32()?, f.usize()?);
                Ok(PathRecord { path_id, first_occurrence, iterations: f.varint()? })
            })?;
            let indirect_targets =
                f.records(2, |f| Ok(IndirectTargetRecord { target: f.u32()?, code: f.u32()? }))?;
            Ok(LoopRecord {
                entry,
                exit,
                nesting_depth,
                paths,
                indirect_targets,
                encoder_overflowed,
            })
        })?;
        fields.finish()?;
        Ok(Self { loops })
    }
}

impl serde::Serialize for Metadata {
    fn serialize(&self, serializer: &mut serde::Serializer) -> Result<(), serde::Error> {
        let packed = self.to_packed();
        serializer.write_len(packed.len())?;
        serializer.write_bytes(&packed);
        Ok(())
    }
}

impl serde::Deserialize for Metadata {
    fn deserialize(deserializer: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let len = deserializer.read_len()?;
        Self::from_packed(deserializer.read_bytes(len)?)
    }
}

/// Fewest packed bytes one loop takes: entry, exit, depth, flag and its two
/// counts, one byte each.
const LOOP_MIN_BYTES: usize = 6;

/// Hands `f` every integer of `metadata` in the order [`Metadata::to_bytes`]
/// signs them, stopping at (and returning `false` on) the first `false`.
/// Writing the packed form and comparing a report with a packed reference
/// both walk this one sequence.
pub(crate) fn for_each_field(metadata: &Metadata, mut f: impl FnMut(u64) -> bool) -> bool {
    f(metadata.loops.len() as u64)
        && metadata.loops.iter().all(|l| {
            f(l.entry.into())
                && f(l.exit.into())
                && f(l.nesting_depth as u64)
                && f(l.encoder_overflowed.into())
                && f(l.paths.len() as u64)
                && l.paths
                    .iter()
                    .all(|p| f(p.path_id.into()) && f(p.first_occurrence as u64) && f(p.iterations))
                && f(l.indirect_targets.len() as u64)
                && l.indirect_targets.iter().all(|t| f(t.target.into()) && f(t.code.into()))
        })
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

/// `bytes` past a leading LEB128 varint of `value`, or `None` when they do
/// not start with one: [`put_varint`] run as a comparison, without decoding.
pub(crate) fn strip_varint(mut bytes: &[u8], mut value: u64) -> Option<&[u8]> {
    loop {
        let (&byte, rest) = bytes.split_first()?;
        bytes = rest;
        if value < 0x80 {
            return (u64::from(byte) == value).then_some(bytes);
        }
        if byte != value as u8 | 0x80 {
            return None;
        }
        value >>= 7;
    }
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

    /// The next byte as a flag: 0 or 1.
    fn flag(&mut self) -> Result<bool, serde::Error> {
        let (&byte, rest) =
            self.0.split_first().ok_or(serde::Error::UnexpectedEof { needed: 1, remaining: 0 })?;
        self.0 = rest;
        match byte {
            0 | 1 => Ok(byte == 1),
            other => Err(serde::Error::InvalidBool(other)),
        }
    }

    /// A `u32` count, then that many records read by `read`, each at least
    /// `min_bytes` long.  The count is checked against the bytes left before
    /// anything is reserved for it.
    fn records<T>(
        &mut self,
        min_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, serde::Error>,
    ) -> Result<Vec<T>, serde::Error> {
        let count = self.u32()? as usize;
        let needed = count.saturating_mul(min_bytes);
        if needed > self.0.len() {
            return Err(serde::Error::UnexpectedEof { needed, remaining: self.0.len() });
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            records.push(read(self)?);
        }
        Ok(records)
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
                        PathRecord { path_id: 0b1011, first_occurrence: 0, iterations: 5 },
                        PathRecord { path_id: 0b10011, first_occurrence: 1, iterations: 2 },
                    ],
                    indirect_targets: vec![IndirectTargetRecord { target: 0x2000, code: 1 }],
                    encoder_overflowed: false,
                },
                LoopRecord {
                    entry: 0x1040,
                    exit: 0x1050,
                    nesting_depth: 2,
                    paths: vec![PathRecord { path_id: 0b11, first_occurrence: 0, iterations: 9 }],
                    indirect_targets: vec![],
                    encoder_overflowed: true,
                },
            ],
        }
    }

    #[test]
    fn aggregate_counts() {
        let m = sample();
        assert_eq!(m.loop_count(), 2);
        assert_eq!(m.total_iterations(), 16);
        assert_eq!(m.total_distinct_paths(), 3);
        assert_eq!(m.loops[0].total_iterations(), 7);
        assert_eq!(m.loops[0].distinct_paths(), 2);
    }

    #[test]
    fn serialisation_is_deterministic_and_self_consistent() {
        let m = sample();
        let a = m.to_bytes();
        let b = m.to_bytes();
        assert_eq!(a, b);
        assert_eq!(m.size_bytes(), a.len());
        // Header + 2 loop headers (entry + exit + depth:u64 + overflowed +
        // path count + target count) + 3 paths (id + first_occurrence:u64 +
        // iterations) + 1 target.
        let expected = 4 + 2 * (4 + 4 + 8 + 1 + 4 + 4) + 3 * (4 + 8 + 8) + (4 + 4);
        assert_eq!(a.len(), expected);
    }

    #[test]
    fn different_metadata_serialises_differently() {
        let a = sample();
        let mut b = sample();
        b.loops[0].paths[0].iterations += 1;
        assert_ne!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn empty_metadata_is_four_bytes() {
        assert_eq!(Metadata::new().to_bytes(), vec![0, 0, 0, 0]);
        assert_eq!(Metadata::new().size_bytes(), 4);
    }

    #[test]
    fn size_grows_with_paths_and_targets() {
        let base = sample().size_bytes();
        let mut more = sample();
        more.loops[0].paths.push(PathRecord { path_id: 0b111, first_occurrence: 2, iterations: 1 });
        more.loops[1].indirect_targets.push(IndirectTargetRecord { target: 0x3000, code: 2 });
        assert!(more.size_bytes() > base);
    }
    /// Mostly small values, with zero, the type's maximum and arbitrary
    /// (mostly many-byte) values mixed in.
    fn value(max: u64) -> impl Strategy<Value = u64> {
        prop_oneof![Just(0), 0..300u64, Just(max), any::<u64>().prop_map(move |v| v & max)]
    }

    /// Arbitrary metadata: no loops or up to three, each with up to three
    /// paths and two indirect targets, either overflow flag, and every field
    /// anywhere in its range, its maximum included.
    pub(crate) fn arbitrary() -> impl Strategy<Value = Metadata> {
        let u32_max = u64::from(u32::MAX);
        let path = (value(u32_max), value(u64::MAX), value(u64::MAX)).prop_map(|(id, first, n)| {
            PathRecord { path_id: id as u32, first_occurrence: first as usize, iterations: n }
        });
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
        proptest::collection::vec(one_loop, 0..4).prop_map(|loops| Metadata { loops })
    }

    #[test]
    fn packed_form_is_the_varints_of_the_signed_fields() {
        let m = sample();
        #[rustfmt::skip]
        let expected = [
            2,
            0x90, 0x20, 0xa4, 0x20, 1, 0, 2, 0b1011, 0, 5, 0b10011, 1, 2, 1, 0x80, 0x40, 1,
            0xc0, 0x20, 0xd0, 0x20, 2, 1, 1, 0b11, 0, 9, 0,
        ];
        assert_eq!(m.to_packed(), expected);
        assert_eq!(m.packed_len(), expected.len());
        assert_eq!(Metadata::from_packed(&expected), Ok(m.clone()));
        // The codec form is the packed form behind a `u32` length.
        let wire = serde::to_bytes(&m).unwrap();
        assert_eq!(wire[..4], (expected.len() as u32).to_le_bytes());
        assert_eq!(wire[4..], expected);
        assert_eq!(Metadata::new().to_packed(), [0]);
    }

    #[test]
    fn every_rejection_has_its_typed_error() {
        let decode = |bytes: &[u8]| Metadata::from_packed(bytes).unwrap_err();
        // Overlong: a zero last byte, or a tenth byte above bit 63.
        assert_eq!(decode(&[0x80, 0x00]), Error::NonCanonicalVarint);
        assert_eq!(decode(&[1, 0x81, 0x00, 0, 0, 0, 0, 0]), Error::NonCanonicalVarint);
        let wide = [[0xff; 9].as_slice(), &[0x02]].concat();
        assert_eq!(
            decode(&[&[1, 1, 1, 1, 0, 1, 1][..], &wide, &[0]].concat()),
            Error::NonCanonicalVarint
        );
        // A `u32` field or count above `u32::MAX`.
        let entry = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert_eq!(
            decode(&[&[1][..], &entry, &[0, 1, 0, 0, 0]].concat()),
            Error::IntegerOverflow { value: 1 << 32 }
        );
        assert_eq!(decode(&entry), Error::IntegerOverflow { value: 1 << 32 });
        // A flag other than 0 or 1.
        assert_eq!(decode(&[1, 0, 0, 1, 2, 0, 0]), Error::InvalidBool(2));
        // A count the bytes left cannot hold: 5 loops need at least 30.
        assert_eq!(
            decode(&[5, 0, 0, 0, 0, 0, 0]),
            Error::UnexpectedEof { needed: 30, remaining: 6 }
        );
        // Truncation at every cut, and trailing bytes.
        let packed = sample().to_packed();
        for cut in 0..packed.len() {
            assert!(
                matches!(decode(&packed[..cut]), Error::UnexpectedEof { .. }),
                "cut at {cut}: {:?}",
                decode(&packed[..cut])
            );
        }
        assert_eq!(decode(&[&packed[..], &[0]].concat()), Error::TrailingBytes { extra: 1 });
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
        let blob = [&[1, 0, 0, 1, 0][..], &count, &[0]].concat();
        let needed = u32::MAX as usize * 3;
        assert_eq!(
            Metadata::from_packed(&blob),
            Err(Error::UnexpectedEof { needed, remaining: 1 })
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn packed_form_round_trips(metadata in arbitrary()) {
            let packed = metadata.to_packed();
            prop_assert_eq!(packed.len(), metadata.packed_len());
            prop_assert_eq!(Metadata::from_packed(&packed), Ok(metadata.clone()));
            let wire = serde::to_bytes(&metadata).unwrap();
            prop_assert_eq!(serde::from_bytes::<Metadata>(&wire), Ok(metadata));
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
            let mut blob = metadata.to_packed();
            let at = at % (blob.len() + 1);
            match edit {
                0 if at < blob.len() => blob[at] = byte,
                1 if at < blob.len() => {
                    blob.remove(at);
                }
                _ => blob.insert(at, byte),
            }
            if let Ok(decoded) = Metadata::from_packed(&blob) {
                prop_assert_eq!(decoded.to_packed(), blob);
            }
        }
    }
}
