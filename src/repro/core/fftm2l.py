"""FFT-accelerated M2L translations.

Section 1 of the paper: "the multipole-to-local translations are
accelerated using local FFTs, resulting in performances that are on par
with the fastest known adaptive FMM implementations".

Why this works: both the upward equivalent surface of a source box ``A``
and the downward check surface of a same-level target box ``B`` are the
boundary nodes of congruent ``p^3`` lattices with spacing
``h = 2 * inner * r / (p - 1)``.  Writing the target node as
``x_t = c_B - inner*r + h*t`` and the source node as
``y_s = c_A - inner*r + h*s`` (``t, s`` lattice multi-indices), every
pairwise displacement is ``x_t - y_s = (c_B - c_A) + h * (t - s)`` — a
function of ``t - s`` only.  The check-potential evaluation is therefore
a 3-D discrete convolution with the kernel tensor
``T[d] = G((c_B - c_A) + h d)``, which we embed in a ``(2p)^3`` circulant
and apply with FFTs:

- one forward transform per *source* box (amortised over all its
  V-interactions),
- one Hadamard multiply-accumulate per box pair,
- one inverse transform per *target* box.

The kernel tensors depend only on (level, anchor offset); like the dense
operators they rescale across levels for homogeneous kernels.

The per-box transforms themselves are *not* executed as FFTs: the
embedded grid is zero except at the ``n_surf`` surface nodes (and only
``n_surf`` check values are read back), so the forward and inverse maps
are small dense DFT matrices ``(nfreq, n_surf)`` applied as real GEMMs.
At the paper's ``p`` (4-8) this trades a handful of extra flops for
BLAS-3 arithmetic intensity over thousands of boxes — several times
faster than batches of tiny ``(2p)^3`` FFTs — and is exactly the DFT,
so the circulant convolution identity is untouched.
"""

from __future__ import annotations

import numpy as np

from repro.core.plan import OCTANT_VECTORS, BufferPool
from repro.core.precompute import LazyTables, OperatorCache
from repro.core.surfaces import surface_lattice_indices

#: Frequency-block and parent-pair chunk sizes of the blocked Hadamard
#: stage: one ``(HADAMARD_CHUNK, 8, HADAMARD_FREQ_BLOCK)`` complex slab
#: (~9 MB) fits in the last-level cache, so the transposes surrounding
#: the batched 8x8 matmuls run at cache speed instead of DRAM-miss speed.
HADAMARD_FREQ_BLOCK = 48
HADAMARD_CHUNK = 512


class FFTM2L(LazyTables):
    """Kernel-tensor cache and grid scatter/gather for FFT M2L."""

    def __init__(self, cache: OperatorCache) -> None:
        self.cache = cache
        self.kernel = cache.kernel
        self.p = cache.p
        self.m = 2 * cache.p  # circulant embedding size
        lattice = surface_lattice_indices(self.p)
        self._surf_ijk = (lattice[:, 0], lattice[:, 1], lattice[:, 2])
        # displacement grid d(i) for circulant index i: i -> i or i - m,
        # with the unused index i == p zeroed out (no valid (t, s) pair
        # has t - s == +-p).
        idx = np.arange(self.m)
        self._disp = np.where(idx < self.p, idx, idx - self.m)
        self._dead = self.p  # circulant index that never contributes
        self._tensors: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
        self._combos: dict[tuple[int, tuple[int, int, int]], np.ndarray] = {}
        self._combos_real: dict[
            tuple[int, tuple[int, int, int]], np.ndarray
        ] = {}
        self._dft: dict[str, tuple[np.ndarray, ...]] = {}

    @property
    def nfreq(self) -> int:
        """Stored frequencies of one real ``(2p)^3`` transform."""
        return self.m * self.m * (self.m // 2 + 1)

    def _dft_operators_t(self) -> tuple[np.ndarray, ...]:
        """Dense surface-node DFT operators, frequency-major (built
        once, ~a few MB).

        Returns ``(F_re, F_im, G_re, G_im)``:

        - ``F_* (nfreq, n_surf)``: forward map, ``hat = (F_re + i F_im)
          @ vals`` equals ``rfftn`` of the surface-scattered grid (only
          surface nodes are non-zero, so the DFT sum collapses to these
          columns of the full transform).
        - ``G_* (n_surf, nfreq)``: inverse map with the Hermitian
          weights of the real transform folded in, ``vals = G_re @
          Re(acc) - G_im @ Im(acc)`` equals ``irfftn`` sampled at the
          surface nodes.

        The blocked Hadamard stage keeps its spectra frequency-leading
        (``(nfreq, ...)``), so the forward/inverse GEMMs put the DFT
        operator on the *left*.
        """

        def build():
            m, mf = self.m, self.m // 2 + 1
            kx, ky, kz = np.meshgrid(
                np.arange(m), np.arange(m), np.arange(mf), indexing="ij"
            )
            freqs = np.stack([kx, ky, kz], axis=-1).reshape(-1, 3)
            lattice = np.stack(self._surf_ijk, axis=1)  # (n_surf, 3)
            phase = (-2.0 * np.pi / m) * (lattice @ freqs.T)  # (n_surf, nfreq)
            F = np.exp(1j * phase)
            # rfft stores one of each conjugate pair for 0 < kz < m/2;
            # those frequencies count twice in the inverse sum.
            w = np.where((freqs[:, 2] == 0) | (freqs[:, 2] == m // 2), 1.0, 2.0)
            G = (np.conj(F) * w[None, :]).T / float(m**3)  # (nfreq, n_surf)
            return tuple(
                np.ascontiguousarray(a.T) for a in (F.real, F.imag, G.real, G.imag)
            )

        return self._entry("dft", "frequency-major", build)

    # -- kernel tensors ------------------------------------------------------

    def kernel_tensor_hat(
        self, level: int, offset: tuple[int, int, int]
    ) -> np.ndarray:
        """``rfftn`` of the circulant-embedded kernel tensor.

        Returns a complex array of shape
        ``(target_dof, source_dof, m, m, m//2 + 1)``.
        """
        if max(abs(o) for o in offset) < 2:
            raise ValueError(f"offset {offset} is adjacent; not a V-list pair")
        h = self.kernel.homogeneity
        key_level = 0 if h is not None else level
        base = self._entry(
            "tensors", (key_level, tuple(int(o) for o in offset)),
            lambda: self._build_tensor(key_level, offset),
        )
        if h is None or level == key_level:
            return base
        return base * (2.0 ** (key_level - level)) ** h

    def _build_tensor(self, level: int, offset: tuple[int, int, int]) -> np.ndarray:
        m, p = self.m, self.p
        r = self.cache.half_width(level)
        spacing = 2.0 * self.cache.inner * r / (p - 1)
        delta = np.asarray(offset, dtype=np.float64) * (2.0 * r)
        d = self._disp.astype(np.float64)
        dx, dy, dz = np.meshgrid(d, d, d, indexing="ij")
        pts = np.stack([dx, dy, dz], axis=-1).reshape(-1, 3) * spacing + delta
        qd, md = self.kernel.target_dof, self.kernel.source_dof
        blocks = self.kernel.matrix(pts, np.zeros((1, 3)))  # (m^3 * qd, md)
        grid = blocks.reshape(m, m, m, qd, md).transpose(3, 4, 0, 1, 2)
        grid = np.ascontiguousarray(grid)
        grid[:, :, self._dead, :, :] = 0.0
        grid[:, :, :, self._dead, :] = 0.0
        grid[:, :, :, :, self._dead] = 0.0
        return np.fft.rfftn(grid, axes=(-3, -2, -1))

    def combo_tensor_hat(
        self, level: int, po: tuple[int, int, int]
    ) -> np.ndarray:
        """Frequency-major octant mixing matrix of one parent offset.

        For a parent pair at anchor offset ``po`` the child pair
        ``(octant ot, octant os)`` sits at offset
        ``2 po + OCTANT_VECTORS[ot] - OCTANT_VECTORS[os]``; entry
        ``[f, ot * qd + q, os * md + m]`` holds that offset's kernel
        tensor at frequency ``f`` (zero where the offset is adjacent, so
        non-V child pairs contribute nothing).  Shape
        ``(nfreq, 8 * target_dof, 8 * source_dof)``; cached per
        ``(level, po)`` with the same homogeneity rescaling as
        :meth:`kernel_tensor_hat`.
        """
        h = self.kernel.homogeneity
        key_level = 0 if h is not None else level
        key = (key_level, tuple(int(x) for x in po))

        def build():
            qd, md = self.kernel.target_dof, self.kernel.source_dof
            nfreq = self.nfreq
            M = np.zeros((nfreq, 8 * qd, 8 * md), dtype=np.complex128)
            pv = np.asarray(key[1], dtype=np.int64)
            for ot in range(8):
                for os_ in range(8):
                    off = 2 * pv + OCTANT_VECTORS[ot] - OCTANT_VECTORS[os_]
                    if np.abs(off).max() < 2:
                        continue
                    T = self.kernel_tensor_hat(key_level, tuple(off))
                    M[:, ot * qd : (ot + 1) * qd, os_ * md : (os_ + 1) * md] = (
                        T.reshape(qd, md, nfreq).transpose(2, 0, 1)
                    )
            return M

        M = self._entry("combos", key, build)
        if h is None or level == key_level:
            return M
        return M * (2.0 ** (key_level - level)) ** h

    def combo_tensor_real(
        self, level: int, po: tuple[int, int, int]
    ) -> np.ndarray:
        """Real-arithmetic form of :meth:`combo_tensor_hat`, transposed.

        Complex ``(8 qd) x (8 md)`` per-frequency mixing runs through
        tiny ``zgemm`` calls that OpenBLAS executes at well under half
        its ``dgemm`` rate at these sizes.  Interleaving real and
        imaginary parts turns the same multiply into one real GEMM: a
        complex row vector viewed as float64 is ``[re0, im0, re1, ...]``,
        and right-multiplying it by this ``(nfreq, 2*8*md, 2*8*qd)``
        matrix — ``C[f, 2k, 2j] = C[f, 2k+1, 2j+1] = Re B[k, j]``,
        ``C[f, 2k, 2j+1] = -C[f, 2k+1, 2j] = Im B[k, j]`` with
        ``B = M[f].T`` — yields exactly the interleaved view of the
        complex product.  Same flops, ~2x the throughput, and the
        operands are free ``.view(float64)`` reinterpretations.
        """
        h = self.kernel.homogeneity
        key_level = 0 if h is not None else level
        key = (key_level, tuple(int(x) for x in po))

        def build():
            B = self.combo_tensor_hat(key_level, key[1]).transpose(0, 2, 1)
            C = np.empty((B.shape[0], 2 * B.shape[1], 2 * B.shape[2]))
            C[:, 0::2, 0::2] = B.real
            C[:, 1::2, 1::2] = B.real
            C[:, 0::2, 1::2] = B.imag
            C[:, 1::2, 0::2] = -B.imag
            return C

        C = self._entry("combos_real", key, build)
        if h is None or level == key_level:
            return C
        return C * (2.0 ** (key_level - level)) ** h

    # -- surface transforms (the planned evaluator's per-level operations) ----

    def forward_rows_t(self, ue_rows: np.ndarray, out_t: np.ndarray) -> None:
        """Forward transforms into a frequency-leading stack.

        ``ue_rows`` is ``(n, n_surf * source_dof)`` flat point-major
        densities; ``out_t`` is a ``(nfreq, n, source_dof)`` complex view
        (its last two axes must be memory-contiguous — e.g. one RHS slab
        of the blocked Hadamard's ``(nfreq, nrhs, n, source_dof)``
        stack): the GEMM-DFT of each box's surface-scattered grid.  Its
        output feeds :meth:`hadamard_blocked` without any transpose pass.
        """
        md = self.kernel.source_dof
        n = ue_rows.shape[0]
        F_re_t, F_im_t, _, _ = self._dft_operators_t()
        vals = ue_rows.reshape(n, -1, md)
        # (n_surf, n * source_dof) surface-major stack of the densities
        a_t = np.ascontiguousarray(vals.transpose(1, 0, 2)).reshape(
            F_re_t.shape[1], -1
        )
        flat = out_t.reshape(out_t.shape[0], n * md)
        np.matmul(F_re_t, a_t, out=flat.real)
        np.matmul(F_im_t, a_t, out=flat.imag)

    def inverse_rows_t(self, acc_t: np.ndarray) -> np.ndarray:
        """Inverse transforms of a frequency-leading accumulator stack.

        ``acc_t`` is ``(nfreq, n, target_dof)`` complex (any leading-axis
        stride, e.g. one RHS slab of the blocked Hadamard accumulator);
        returns ``(n, n_surf * target_dof)`` flat point-major check
        potentials.
        """
        nfreq, n, qd = acc_t.shape
        _, _, G_re_t, G_im_t = self._dft_operators_t()
        flat = acc_t.reshape(nfreq, n * qd)
        pm_t = np.matmul(G_re_t, np.ascontiguousarray(flat.real))
        pm_t -= np.matmul(G_im_t, np.ascontiguousarray(flat.imag))
        return pm_t.reshape(-1, n, qd).transpose(1, 0, 2).reshape(n, -1)

    def hadamard_blocked(
        self,
        level: int,
        po_groups: list,
        phi_ext: np.ndarray,
        acc_ext: np.ndarray,
        pool: BufferPool,
    ) -> None:
        """Parent-pair-blocked Hadamard stage, frequency-leading.

        A class-major multiply streams ~5 full-spectrum passes per box
        pair; here each gathered parent-pair slab (8 source + 8 target
        child rows) covers up to 64 pairs through per-frequency batched
        real-form mixing GEMMs (:meth:`combo_tensor_real`), cutting DRAM
        traffic by an order of magnitude.  ``po_groups`` may be a whole
        level's blocks or one pass's (:func:`repro.core.plan.split_v_level`).
        Both spectra are *frequency-leading* per RHS:
        ``phi_ext`` is ``(nrhs, nfreq, n + 1, source_dof)`` and
        ``acc_ext`` is ``(nrhs, nfreq, n + 1, target_dof)`` (the last
        box row of each is the sentinel — zero source / discarded
        target).  In that layout a pair chunk's matmul operand is one
        trailing-axis fancy gather — frequency rows are contiguous, so
        the gather needs no transpose pass and stays cache-resident —
        and the products drain through a single flat-index
        ``np.add.at`` scatter per chunk, one buffered pass instead of
        fancy ``+=``'s gather/add/write-back triple.  ``acc_ext`` must
        arrive zeroed; it is accumulated in place.

        Right-hand sides run the innermost loop with exactly the
        single-RHS gather/matmul/scatter shapes, so column ``r`` of a
        block apply is *bit-identical* to the single-RHS apply of
        column ``r``; the flat index vectors, built once per chunk, are
        the only work shared across RHS.  Within a parent-offset class
        every target row is hit at most once, so accumulation order per
        element is independent of the chunking.
        """
        nrhs, nfreq, nbp, md = phi_ext.shape
        nbt, qd = acc_ext.shape[2], acc_ext.shape[3]
        phi_ext[:, :, -1] = 0.0
        phif = phi_ext.reshape(nrhs, nfreq * nbp * md)
        accf = acc_ext.reshape(nrhs, nfreq * nbt * qd)
        dofs_m = np.arange(md, dtype=np.int64)
        dofs_q = np.arange(qd, dtype=np.int64)
        groups = []
        for po, src_rows, trg_rows in po_groups:
            # flat spectrum columns of the pair chunks' child rows
            srcc = ((src_rows * md)[:, :, None] + dofs_m).reshape(
                src_rows.shape[0], -1
            )
            trgc = ((trg_rows * qd)[:, :, None] + dofs_q).reshape(
                trg_rows.shape[0], -1
            )
            groups.append((srcc, trgc, self.combo_tensor_real(level, po)))
        # Frequency blocks outermost: one (fb, nrhs * boxes) slab of each
        # spectrum stays cache-resident across every group's gathers and
        # scatters, instead of re-streaming both full spectra per group.
        for f0 in range(0, nfreq, HADAMARD_FREQ_BLOCK):
            f1 = min(f0 + HADAMARD_FREQ_BLOCK, nfreq)
            fb = f1 - f0
            frange = np.arange(f0, f1, dtype=np.int64)
            foff_s = (frange * (nbp * md))[:, None]
            foff_t = (frange * (nbt * qd))[:, None]
            for srcc, trgc, C in groups:
                cf = C[f0:f1]
                npp = srcc.shape[0]
                for c0 in range(0, npp, HADAMARD_CHUNK):
                    c1 = min(c0 + HADAMARD_CHUNK, npp)
                    nc = c1 - c0
                    # flat (frequency, column) gather / scatter indices,
                    # built once per chunk and shared by every RHS
                    ling = foff_s + srcc[c0:c1].reshape(-1)
                    lin = (foff_t + trgc[c0:c1].reshape(-1)).reshape(-1)
                    r = pool.empty("hadamard", (fb, nc, 8 * qd), np.complex128)
                    rv = r.view(np.float64)
                    for rh in range(nrhs):
                        gt = phif[rh][ling].reshape(fb, nc, 8 * md)
                        np.matmul(gt.view(np.float64), cf, out=rv)
                        np.add.at(accf[rh], lin, r.reshape(-1))

    # -- flop accounting -------------------------------------------------------

    def flops_per_pair(self) -> float:
        """Real flops of one Hadamard multiply-accumulate (per box pair)."""
        nfreq = self.nfreq
        qd, md = self.kernel.target_dof, self.kernel.source_dof
        return 8.0 * qd * md * nfreq

    def flops_per_fft(self, dof: int = 1) -> float:
        """Real flops of one forward or inverse surface GEMM-DFT.

        Two ``(dof, n_surf) x (n_surf, nfreq)`` real products (the real
        and imaginary DFT parts).
        """
        nfreq = self.nfreq
        return 4.0 * nfreq * self.cache.n_surf * dof
