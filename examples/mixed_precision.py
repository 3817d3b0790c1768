"""fp16 communication with dynamic scaling (paper §4.4.1).

Shows the low-precision pipeline the Horovod implementation uses:
gradients are scaled, cast to fp16 for communication, checked for
overflow (backing the scale off and skipping the step when one occurs),
then decoded and combined with Adasum — whose dot products accumulate
in float64 regardless of the wire precision.

Run:  python examples/mixed_precision.py
"""

import numpy as np

from repro.comm.codec import Fp16Codec
from repro.core import DynamicScaler, adasum, adasum_scale_factors


def main() -> None:
    rng = np.random.default_rng(0)
    scaler = DynamicScaler(init_scale=2 ** 14)
    codec = Fp16Codec(scaler)  # the "fp16" stage of wire_codecs=("fp16",)

    print("step | scale   | overflow | skipped")
    for step in range(12):
        # Occasionally produce a huge gradient to trigger the backoff.
        magnitude = 100.0 if step in (3, 4) else 1e-3
        grad = (rng.standard_normal(512) * magnitude).astype(np.float32)
        codec.begin_step()  # fix this step's scale
        overflow = codec.roundtrip(grad, None)  # scale -> fp16 -> decode, in place
        skipped = codec.finish_step(overflow)  # one scaler verdict per step
        print(f"{step:4d} | {scaler.scale_value:7.0f} | {str(overflow):8s} | {skipped}")

    # fp64 accumulation keeps Adasum's scale factors exact even when the
    # wire payload is fp16 with tiny values (would underflow in fp16).
    tiny = np.full(4096, 6e-4, dtype=np.float16)
    s1, s2 = adasum_scale_factors(tiny, tiny)
    print(f"\nparallel fp16 gradients: scale factors = ({s1:.4f}, {s2:.4f}) "
          f"(exact answer: 0.5, 0.5)")

    g1 = rng.standard_normal(256).astype(np.float32)
    g2 = rng.standard_normal(256).astype(np.float32)
    full = adasum(g1, g2)
    half = adasum(g1.astype(np.float16), g2.astype(np.float16)).astype(np.float32)
    print(f"fp16 vs fp32 Adasum max |diff|: {np.abs(full - half).max():.2e}")


if __name__ == "__main__":
    main()
