//! Look-ahead cache prefetch for the engine's hot loops (DESIGN.md § 6,
//! "Lookahead prefetch").
//!
//! This is the crate's only `unsafe` code. The crate root denies
//! `unsafe_code`; [`prefetch`] alone allows it, for one block around the
//! prefetch intrinsic.

/// Cache-line size the hints step by. A wrong guess on some other part
/// only makes a hint redundant or leaves a line to be fetched on demand.
#[cfg(target_arch = "x86_64")]
const LINE: usize = 64;

/// Asks the CPU to start loading every cache line of `*value` into L1 and
/// returns at once, without waiting for any of them.
///
/// A prefetch is a hint: it reads nothing into a register, writes
/// nothing, and never faults, so it changes cache state and nothing else.
/// Every simulation result stays bit-identical with or without it. A
/// no-op on targets other than x86_64.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T: ?Sized>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let len = core::mem::size_of_val(value);
        let start = (value as *const T).cast::<i8>();
        // Start from the line that holds the first byte, so a value that
        // straddles a line boundary has its last line requested too.
        let head = start.addr() % LINE;
        let first = start.wrapping_sub(head);
        for k in 0..(head + len).div_ceil(LINE) {
            // SAFETY: `_mm_prefetch` is a hint. It never faults, whatever
            // the address, and loads nothing the program can observe. The
            // addresses here are the lines of `*value`, which the live
            // reference keeps allocated for the whole call. SSE, which the
            // intrinsic needs, is part of the x86_64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(k * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}
