//! The core's view of data memory.

use core::fmt;

use terasim_riscv::AmoOp;

/// Error produced by a data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The address is not backed by any memory region.
    Unmapped {
        /// Faulting address.
        addr: u32,
    },
    /// The access is not naturally aligned for its size.
    Misaligned {
        /// Faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped { addr } => write!(f, "access to unmapped address {addr:#010x}"),
            MemError::Misaligned { addr, size } => {
                write!(f, "misaligned {size}-byte access at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Data memory as seen by one hart.
///
/// Implementations decide sharing (the TeraPool L1 is shared between 1024
/// harts) and per-address latency (NUMA distance). Sub-word values are
/// passed in the low bits of `u32`, zero-extended on load.
///
/// All accesses must be naturally aligned; implementations return
/// [`MemError::Misaligned`] otherwise.
pub trait Memory {
    /// Loads `size` ∈ {1, 2, 4} bytes at `addr`, zero-extended.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unmapped or misaligned access.
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError>;

    /// Stores the low `size` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unmapped or misaligned access.
    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError>;

    /// Atomic read-modify-write on the aligned word at `addr`; returns the
    /// old value. Used for `amo*.w` and the `sc.w` commit.
    ///
    /// # Errors
    ///
    /// [`MemError`] on unmapped or misaligned access.
    fn amo(&mut self, op: AmoOp, addr: u32, value: u32) -> Result<u32, MemError>;

    /// Static access latency in cycles for the timing model.
    ///
    /// The default is the paper's conservative choice: the largest
    /// non-contended TeraPool L1 latency (9 cycles) for every access.
    fn latency(&self, addr: u32) -> u32 {
        let _ = addr;
        9
    }

    /// Looks at the `size` bytes at `addr` without accessing them: their
    /// value, zero-extended, when the address is plain memory that a load
    /// of `size` bytes would read and a store would only overwrite; `None`
    /// when the access would fail, would reach a device register (whose
    /// accesses have effects beyond its bytes), or the view cannot tell.
    ///
    /// No side effects. SPMD groups run a block uop-major only while every
    /// access peeks as plain memory (see [`resume_spmd`](crate::resume_spmd)),
    /// so the default `None` only costs speed.
    fn peek(&self, addr: u32, size: u32) -> Option<u32> {
        let _ = (addr, size);
        None
    }
}

pub(crate) fn check_align(addr: u32, size: u32) -> Result<(), MemError> {
    if !addr.is_multiple_of(size) {
        Err(MemError::Misaligned { addr, size })
    } else {
        Ok(())
    }
}

/// Applies an AMO operation to `old`, returning the new memory value.
pub(crate) fn amo_apply(op: AmoOp, old: u32, value: u32) -> u32 {
    match op {
        AmoOp::Swap => value,
        AmoOp::Add => old.wrapping_add(value),
        AmoOp::Xor => old ^ value,
        AmoOp::And => old & value,
        AmoOp::Or => old | value,
        AmoOp::Min => (old as i32).min(value as i32) as u32,
        AmoOp::Max => (old as i32).max(value as i32) as u32,
        AmoOp::Minu => old.min(value),
        AmoOp::Maxu => old.max(value),
    }
}

/// A flat, single-owner RAM region — the simplest [`Memory`], used for
/// single-core runs and unit tests.
///
/// # Examples
///
/// ```
/// use terasim_iss::{DenseMemory, Memory};
///
/// let mut mem = DenseMemory::new(0x1000, 0x100);
/// mem.store(0x1004, 4, 0xdead_beef)?;
/// assert_eq!(mem.load(0x1004, 4)?, 0xdead_beef);
/// assert_eq!(mem.load(0x1006, 2)?, 0xdead);
/// # Ok::<(), terasim_iss::MemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DenseMemory {
    base: u32,
    bytes: Vec<u8>,
}

impl DenseMemory {
    /// Allocates `size` zeroed bytes starting at `base`.
    pub fn new(base: u32, size: u32) -> Self {
        Self { base, bytes: vec![0; size as usize] }
    }

    /// Base address of the region.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Size of the region in bytes.
    pub fn size(&self) -> u32 {
        u32::try_from(self.bytes.len()).expect("region fits the address space")
    }

    /// Copies `bytes` into the region at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the region.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let start = addr.checked_sub(self.base).expect("address below region") as usize;
        self.bytes[start..start + bytes.len()].copy_from_slice(bytes);
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside the region.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        let start = addr.checked_sub(self.base).expect("address below region") as usize;
        &self.bytes[start..start + len]
    }

    /// The `size` bytes at byte offset `off`, zero-extended.
    fn read_at(&self, off: usize, size: u32) -> u32 {
        let mut word = [0u8; 4];
        word[..size as usize].copy_from_slice(&self.bytes[off..off + size as usize]);
        u32::from_le_bytes(word)
    }

    fn offset(&self, addr: u32, size: u32) -> Result<usize, MemError> {
        check_align(addr, size)?;
        let off = addr.wrapping_sub(self.base);
        if off.checked_add(size).is_some_and(|end| end as usize <= self.bytes.len()) && addr >= self.base {
            Ok(off as usize)
        } else {
            Err(MemError::Unmapped { addr })
        }
    }
}

impl Memory for DenseMemory {
    fn load(&mut self, addr: u32, size: u32) -> Result<u32, MemError> {
        Ok(self.read_at(self.offset(addr, size)?, size))
    }

    fn peek(&self, addr: u32, size: u32) -> Option<u32> {
        Some(self.read_at(self.offset(addr, size).ok()?, size))
    }

    fn store(&mut self, addr: u32, size: u32, value: u32) -> Result<(), MemError> {
        let off = self.offset(addr, size)?;
        self.bytes[off..off + size as usize].copy_from_slice(&value.to_le_bytes()[..size as usize]);
        Ok(())
    }

    fn amo(&mut self, op: AmoOp, addr: u32, value: u32) -> Result<u32, MemError> {
        let old = self.load(addr, 4)?;
        self.store(addr, 4, amo_apply(op, old, value))?;
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subword_access() {
        let mut mem = DenseMemory::new(0, 16);
        mem.store(0, 4, 0x0403_0201).unwrap();
        assert_eq!(mem.load(0, 1).unwrap(), 0x01);
        assert_eq!(mem.load(3, 1).unwrap(), 0x04);
        assert_eq!(mem.load(2, 2).unwrap(), 0x0403);
        mem.store(1, 1, 0xff).unwrap();
        assert_eq!(mem.load(0, 4).unwrap(), 0x0403_ff01);
    }

    #[test]
    fn bounds_and_alignment() {
        let mut mem = DenseMemory::new(0x100, 16);
        assert_eq!(mem.load(0x0fc, 4), Err(MemError::Unmapped { addr: 0x0fc }));
        assert_eq!(mem.load(0x110, 4), Err(MemError::Unmapped { addr: 0x110 }));
        assert_eq!(mem.load(0x102, 4), Err(MemError::Misaligned { addr: 0x102, size: 4 }));
        assert!(mem.store(0x10c, 4, 0).is_ok());
    }

    #[test]
    fn amo_operations() {
        let mut mem = DenseMemory::new(0, 16);
        mem.store(4, 4, 10).unwrap();
        assert_eq!(mem.amo(AmoOp::Add, 4, 5).unwrap(), 10);
        assert_eq!(mem.load(4, 4).unwrap(), 15);
        assert_eq!(mem.amo(AmoOp::Swap, 4, 99).unwrap(), 15);
        assert_eq!(mem.load(4, 4).unwrap(), 99);
        mem.store(8, 4, (-5i32) as u32).unwrap();
        assert_eq!(mem.amo(AmoOp::Max, 8, 3).unwrap(), (-5i32) as u32);
        assert_eq!(mem.load(8, 4).unwrap(), 3);
        assert_eq!(mem.amo(AmoOp::Maxu, 8, (-1i32) as u32).unwrap(), 3);
        assert_eq!(mem.load(8, 4).unwrap(), u32::MAX);
    }
}
