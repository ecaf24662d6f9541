//! Memory model with permissioned segments.
//!
//! The paper's program-memory abstraction (Fig. 1) splits memory into a read-execute
//! code segment and a read-write data segment: code cannot be overwritten at run time
//! and data cannot be executed.  [`Memory`] enforces exactly those permissions, which
//! is what makes the LO-FAT adversary model meaningful in simulation: the attacker
//! (fault injection in `lofat-workloads`) can corrupt any writable data but can never
//! patch the attested binary.

use crate::error::{AccessKind, Rv32Error};

/// Permissions of a memory segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Permissions {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub execute: bool,
}

impl Permissions {
    /// Read + execute (code segment).
    pub const RX: Permissions = Permissions { read: true, write: false, execute: true };
    /// Read + write (data segment).
    pub const RW: Permissions = Permissions { read: true, write: true, execute: false };
}

/// A contiguous memory segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Human-readable name (`.text`, `.data`, `stack`, …).
    pub name: &'static str,
    /// Base address of the segment.
    pub base: u32,
    /// Segment contents.
    pub bytes: Vec<u8>,
    /// Access permissions.
    pub perms: Permissions,
}

impl Segment {
    /// Creates a segment from its parts.
    pub fn new(name: &'static str, base: u32, bytes: Vec<u8>, perms: Permissions) -> Self {
        Self { name, base, bytes, perms }
    }

    /// End address (exclusive).
    pub fn end(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }

    fn contains(&self, addr: u32, size: u32) -> bool {
        // Checked arithmetic: an access near u32::MAX must report "not
        // contained" (→ typed unmapped fault), not wrap around or overflow.
        addr >= self.base && addr.checked_add(size).is_some_and(|end| end <= self.end())
    }
}

/// A flat memory made of non-overlapping permissioned segments.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    segments: Vec<Segment>,
    /// Index of the segment that served the most recent access.  Real programs
    /// exhibit strong locality (data accesses hit `.data` or the stack run after
    /// run), so probing this segment first turns the linear segment scan into a
    /// single bounds check on the hot path.
    last_hit: std::cell::Cell<usize>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment.
    ///
    /// # Errors
    ///
    /// Returns [`Rv32Error::InvalidProgram`] if the segment overlaps an existing one.
    pub fn add_segment(&mut self, segment: Segment) -> Result<(), Rv32Error> {
        for existing in &self.segments {
            let overlaps = segment.base < existing.end() && existing.base < segment.end();
            if overlaps && !segment.bytes.is_empty() && !existing.bytes.is_empty() {
                return Err(Rv32Error::InvalidProgram {
                    message: format!(
                        "segment `{}` [{:#x}, {:#x}) overlaps `{}` [{:#x}, {:#x})",
                        segment.name,
                        segment.base,
                        segment.end(),
                        existing.name,
                        existing.base,
                        existing.end()
                    ),
                });
            }
        }
        self.segments.push(segment);
        Ok(())
    }

    /// Returns the segments of this memory.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    fn segment_for(&self, addr: u32, size: u32) -> Result<&Segment, Rv32Error> {
        let last = self.last_hit.get();
        if let Some(segment) = self.segments.get(last) {
            if segment.contains(addr, size) {
                return Ok(segment);
            }
        }
        let index = self
            .segments
            .iter()
            .position(|s| s.contains(addr, size))
            .ok_or(Rv32Error::MemoryUnmapped { addr, size })?;
        self.last_hit.set(index);
        Ok(&self.segments[index])
    }

    fn segment_for_mut(&mut self, addr: u32, size: u32) -> Result<&mut Segment, Rv32Error> {
        let last = self.last_hit.get();
        let index = if self.segments.get(last).is_some_and(|s| s.contains(addr, size)) {
            last
        } else {
            let index = self
                .segments
                .iter()
                .position(|s| s.contains(addr, size))
                .ok_or(Rv32Error::MemoryUnmapped { addr, size })?;
            self.last_hit.set(index);
            index
        };
        Ok(&mut self.segments[index])
    }

    /// Loads `size ∈ {1, 2, 4}` bytes as a little-endian value.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses or segments without read permission.
    pub fn load(&self, addr: u32, size: u32) -> Result<u32, Rv32Error> {
        let segment = self.segment_for(addr, size)?;
        if !segment.perms.read {
            return Err(Rv32Error::MemoryPermission { addr, access: AccessKind::Read });
        }
        let offset = (addr - segment.base) as usize;
        let mut value = 0u32;
        for i in 0..size as usize {
            value |= u32::from(segment.bytes[offset + i]) << (8 * i);
        }
        Ok(value)
    }

    /// Stores `size ∈ {1, 2, 4}` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Fails on unmapped addresses or segments without write permission (e.g. the
    /// code segment, reproducing the paper's `rx` protection).
    pub fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), Rv32Error> {
        let segment = self.segment_for_mut(addr, size)?;
        if !segment.perms.write {
            return Err(Rv32Error::MemoryPermission { addr, access: AccessKind::Write });
        }
        let offset = (addr - segment.base) as usize;
        for i in 0..size as usize {
            segment.bytes[offset + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Fetches a 32-bit instruction word.
    ///
    /// # Errors
    ///
    /// Fails on unmapped or non-executable addresses and on misaligned PCs.
    pub fn fetch(&self, pc: u32) -> Result<u32, Rv32Error> {
        if !pc.is_multiple_of(4) {
            return Err(Rv32Error::Misaligned { addr: pc, required: 4 });
        }
        // Plain scan, not the `last_hit` cache: fetches hit the text segment
        // (placed first by the loader) while loads/stores hit data/stack, so
        // sharing the cache between them would thrash it on every access.
        let segment = self
            .segments
            .iter()
            .find(|s| s.contains(pc, 4))
            .ok_or(Rv32Error::MemoryUnmapped { addr: pc, size: 4 })?;
        if !segment.perms.execute {
            return Err(Rv32Error::MemoryPermission { addr: pc, access: AccessKind::Execute });
        }
        let offset = (pc - segment.base) as usize;
        Ok(u32::from_le_bytes([
            segment.bytes[offset],
            segment.bytes[offset + 1],
            segment.bytes[offset + 2],
            segment.bytes[offset + 3],
        ]))
    }

    /// Overwrites bytes in a segment regardless of permissions.
    ///
    /// This models the *adversary* of the paper (arbitrary writes to writable memory)
    /// as well as the loader; it is used by the attack-injection utilities in
    /// `lofat-workloads`.  It still refuses to touch unmapped memory.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped.
    pub fn poke_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Rv32Error> {
        let segment = self.segment_for_mut(addr, bytes.len() as u32)?;
        let offset = (addr - segment.base) as usize;
        segment.bytes[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Writes bytes into a non-executable segment regardless of its write
    /// permission: the loader placing input data.  Unlike
    /// [`Memory::poke_bytes`] it refuses to touch code.
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped, and with [`Rv32Error::MemoryPermission`]
    /// if it lies in an executable segment.
    pub fn poke_data(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Rv32Error> {
        let segment = self.segment_for_mut(addr, bytes.len() as u32)?;
        if segment.perms.execute {
            return Err(Rv32Error::MemoryPermission { addr, access: AccessKind::Write });
        }
        let offset = (addr - segment.base) as usize;
        segment.bytes[offset..offset + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads bytes from a segment regardless of permissions (loader/debugger view).
    ///
    /// # Errors
    ///
    /// Fails if the range is unmapped.
    pub fn peek_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Rv32Error> {
        let segment = self.segment_for(addr, len)?;
        let offset = (addr - segment.base) as usize;
        Ok(segment.bytes[offset..offset + len as usize].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory() -> Memory {
        let mut mem = Memory::new();
        mem.add_segment(Segment::new(".text", 0x1000, vec![0u8; 64], Permissions::RX)).unwrap();
        mem.add_segment(Segment::new(".data", 0x2000, vec![0u8; 64], Permissions::RW)).unwrap();
        mem
    }

    #[test]
    fn load_store_roundtrip() {
        let mut mem = memory();
        mem.store(0x2000, 4, 0xdead_beef).unwrap();
        assert_eq!(mem.load(0x2000, 4).unwrap(), 0xdead_beef);
        assert_eq!(mem.load(0x2000, 1).unwrap(), 0xef);
        assert_eq!(mem.load(0x2002, 2).unwrap(), 0xdead);
        mem.store(0x2010, 1, 0xff).unwrap();
        assert_eq!(mem.load(0x2010, 4).unwrap(), 0x0000_00ff);
    }

    #[test]
    fn code_segment_is_not_writable() {
        let mut mem = memory();
        let err = mem.store(0x1000, 4, 1).unwrap_err();
        assert!(matches!(err, Rv32Error::MemoryPermission { access: AccessKind::Write, .. }));
    }

    #[test]
    fn data_segment_is_not_executable() {
        let mem = memory();
        let err = mem.fetch(0x2000).unwrap_err();
        assert!(matches!(err, Rv32Error::MemoryPermission { access: AccessKind::Execute, .. }));
    }

    #[test]
    fn unmapped_access_detected() {
        let mem = memory();
        assert!(matches!(mem.load(0x5000, 4), Err(Rv32Error::MemoryUnmapped { .. })));
        // Access straddling the end of a segment is unmapped too.
        assert!(matches!(mem.load(0x103e, 4), Err(Rv32Error::MemoryUnmapped { .. })));
    }

    #[test]
    fn misaligned_fetch_rejected() {
        let mem = memory();
        assert!(matches!(mem.fetch(0x1002), Err(Rv32Error::Misaligned { .. })));
    }

    #[test]
    fn overlapping_segments_rejected() {
        let mut mem = memory();
        let err = mem
            .add_segment(Segment::new("overlap", 0x1010, vec![0u8; 16], Permissions::RW))
            .unwrap_err();
        assert!(matches!(err, Rv32Error::InvalidProgram { .. }));
    }

    #[test]
    fn poke_bypasses_permissions_but_not_mapping() {
        let mut mem = memory();
        // The adversary can flip bits in writable memory via poke; the loader can also
        // initialise the code segment this way.
        mem.poke_bytes(0x1000, &[1, 2, 3, 4]).unwrap();
        assert_eq!(mem.peek_bytes(0x1000, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(mem.poke_bytes(0x9000, &[0]).is_err());
    }

    #[test]
    fn data_poke_refuses_code() {
        let mut mem = memory();
        mem.poke_data(0x2004, &[5, 6]).unwrap();
        assert_eq!(mem.peek_bytes(0x2004, 2).unwrap(), vec![5, 6]);
        let err = mem.poke_data(0x1000, &[1]).unwrap_err();
        assert!(matches!(err, Rv32Error::MemoryPermission { access: AccessKind::Write, .. }));
        assert_eq!(mem.peek_bytes(0x1000, 1).unwrap(), vec![0], "code left untouched");
        assert!(matches!(mem.poke_data(0x9000, &[0]), Err(Rv32Error::MemoryUnmapped { .. })));
    }
}
