"""Host-speed probe for the decode benchmark.

The probe is a frozen copy of the work sdlab's decoding does, written here so
that no change to sdlab can change it: token steps of a 2-layer, width-32
transformer over a growing context (row-wise layer norm, 32x32 projections,
per-head attention with a softmax, a 4x MLP with SiLU, the 64-way head) and
inverse-CDF scans over the head's distribution.  It has the same mix of
small numpy calls and interpreter loops as the program, so host contention
slows it by about the same factor.

The benchmark runs one probe next to each timed decode and scales the
decode's time by ``REFERENCE_MS / probe time``: figures read as milliseconds
on a host running the probe in REFERENCE_MS.
"""

from __future__ import annotations

import time

import numpy as np

DIM, HEADS, LAYERS, VOCAB, STEPS = 32, 2, 2, 64, 12
# probe time on a quiet host (2-vCPU x86, numpy 2.4, OpenBLAS, one thread)
REFERENCE_MS = 2.0


def _layer_norm(x):
    mu = np.mean(x)
    return (x - mu) / np.sqrt(np.mean((x - mu) ** 2) + 1e-6)


def _softmax(z):
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


class Probe:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        s = 1.0 / np.sqrt(DIM)
        self.w = [[rng.normal(0.0, s, (DIM, DIM)) for _ in range(4)] for _ in range(LAYERS)]
        self.w1 = [rng.normal(0.0, s, (4 * DIM, DIM)) for _ in range(LAYERS)]
        self.w2 = [rng.normal(0.0, s / 2, (DIM, 4 * DIM)) for _ in range(LAYERS)]
        self.head = rng.normal(0.0, s, (VOCAB, DIM))
        self.emb = rng.normal(0.0, 1.0, (VOCAB, DIM))
        self.checksum = None

    def _decode(self) -> int:
        dh = DIM // HEADS
        ks = [np.zeros((STEPS, DIM)) for _ in range(LAYERS)]
        vs = [np.zeros((STEPS, DIM)) for _ in range(LAYERS)]
        tok = 1
        for pos in range(STEPS):
            x = self.emb[tok].copy()
            for l in range(LAYERS):
                wq, wk, wv, wo = self.w[l]
                a = _layer_norm(x)
                q = wq @ a
                ks[l][pos] = wk @ a
                vs[l][pos] = wv @ a
                out = np.empty(DIM)
                for h in range(HEADS):
                    sl = slice(h * dh, (h + 1) * dh)
                    w = _softmax(ks[l][: pos + 1, sl] @ q[sl] / np.sqrt(dh))
                    out[sl] = w @ vs[l][: pos + 1, sl]
                x = x + wo @ out
                m = self.w1[l] @ _layer_norm(x)
                x = x + self.w2[l] @ (m / (1.0 + np.exp(-m)))
            probs = _softmax(self.head @ _layer_norm(x))
            for u in (0.25, 0.5, 0.75, 0.999):  # inverse-CDF scans, as in sampling
                acc, tok = 0.0, VOCAB - 1
                for i in range(VOCAB):
                    acc += float(probs[i])
                    if u < acc:
                        tok = i
                        break
        return tok

    def run(self) -> float:
        """Time one probe in ms; the result is checked so the work is done."""
        t0 = time.perf_counter()
        tok = self._decode()
        ms = (time.perf_counter() - t0) * 1e3
        if self.checksum is None:
            self.checksum = tok
        elif tok != self.checksum:
            raise RuntimeError("host-speed probe is not deterministic")
        return ms
