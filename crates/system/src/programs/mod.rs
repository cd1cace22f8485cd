//! Machine-code program builders for every evaluation workload.
//!
//! All three implementations of the 3-channel convolutional layer are
//! emitted as real RV32 machine code and *executed* on the
//! instruction-set simulator — the cycle counts in Figures 3/4 come
//! from instruction-by-instruction simulation, not from formulas:
//!
//! * [`scalar::conv_layer`] — plain RV32IM (the CV32E40X baseline);
//! * [`pulp::conv_layer`] — XCVPULP packed-SIMD with hardware loops and
//!   post-increment accesses (the CV32E40PX baseline);
//! * [`offload::conv_layer`] — the ARCANE host program: `xmr`
//!   reservations + one (or several, in multi-instance mode) `xmk4`
//!   offloads + a synchronising result read, exactly Listing 1.

pub mod offload;
pub mod pulp;
pub mod scalar;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ConvLayerParams, Layout};
    use arcane_sim::Sew;

    #[test]
    fn every_conv_generator_assembles() {
        // The assembler rejects immediates that do not fit 12 bits, so
        // a generator whose offsets grow with the layer shape would fail
        // here instead of silently truncating.
        for sew in [Sew::Byte, Sew::Half, Sew::Word] {
            for size in [8, 16, 32, 64, 128, 256] {
                for k in [3, 5, 7] {
                    let p = ConvLayerParams::new(size, size, k, sew);
                    let l = Layout::for_conv(&p);
                    let what = format!("{size}x{size} k{k} {sew:?}");
                    scalar::conv_layer(&p, &l).assemble(0).expect(&what);
                    pulp::conv_layer(&p, &l).assemble(0).expect(&what);
                    for n in [1, 2, 4] {
                        if p.conv_h_even() / 2 >= n {
                            offload::conv_layer(&p, &l, n).assemble(0).expect(&what);
                        }
                    }
                }
            }
        }
    }
}
