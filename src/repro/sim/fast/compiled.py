"""The C kernel: the one fast implementation of the sequential loops.

The fast backend's remaining per-branch cost is two genuinely
sequential loops — the TAGE provider/update/classify loop and the
O-GEHL sum/train loop — that the NumPy layers cannot vectorize.  This
module embeds them as C source, compiled once per source digest with
the system C compiler (``$CC``, else ``cc``/``gcc``/``clang`` on
``PATH``) into a cached shared library and called through
:mod:`ctypes` — the ``cext`` provider.  Every piece of kernel state
crosses the boundary as a flat NumPy array or a plain integer.

Resolution is lazy, cached and silent: the first query builds (or finds)
the shared library.  Without a C compiler there is no second fast
implementation to fall back to: :func:`load_kernel` raises
:class:`~repro.sim.backends.FastBackendUnsupported`, and the fast
backend's capability query refuses TAGE and O-GEHL cells with the same
reason (:func:`provider_unavailable_reason`), so the dispatchers warn
once and run those cells on the reference engine — the oracle both
loops are checked against by ``tests/equivalence/``.

The TAGE kernel is *batched*: it runs ``n_cells`` independent
configurations over one shared set of index/tag planes in a single
call (cells-outer, trace-inner — the cells never interact, so the
per-cell streams are bit-identical to independent runs while the trace
planes are walked once per cell from warm cache lines).  The lockstep
sweep scheduler (:mod:`repro.sim.fast.lockstep`) and the single-cell
entry points in :mod:`repro.sim.fast.tage` both call it; a single-cell
simulation is simply a batch of one.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

from repro.sim.backends import FastBackendUnsupported

__all__ = [
    "COMPILED_PROVIDER",
    "active_provider",
    "provider_unavailable_reason",
    "load_kernel",
    "N_IPARAMS",
    "N_FPARAMS",
    "N_COUNTS",
]

#: Where compiled shared libraries are cached (default ~/.cache).
CACHE_ENV = "REPRO_COMPILED_CACHE"

#: The one compiled provider: the embedded C kernel.
COMPILED_PROVIDER = "cext"

# ---------------------------------------------------------------------------
# Packed per-cell parameter layout for the batched TAGE kernel.
#
# One int64 row per cell (N_IPARAMS wide) plus one float64 row
# (N_FPARAMS wide) carry everything the kernel reads from the
# config/estimator/controller objects (packed by `tage._cell_params`); one int64 row (N_COUNTS wide)
# carries everything it returns.  The literal indices below are the ABI
# of the C kernel.
# ---------------------------------------------------------------------------

IP_LOG_TAGGED = 0      # log2 entries per tagged component
IP_CMAX = 1            # prediction counter ceiling
IP_CMIN = 2            # prediction counter floor
IP_U_MAX = 3           # useful-counter ceiling
IP_U_RESET = 4         # graceful u aging period
IP_USE_ALT_ENABLED = 5  # USE_ALT_ON_NA monitor enabled (0/1)
IP_USE_ALT_MAX = 6     # monitor ceiling
IP_USE_ALT_MIN = 7     # monitor floor
IP_UPDATE_ALT = 8      # update_alt_when_u_zero (0/1)
IP_RANDOMIZED = 9      # randomized allocation start (0/1)
IP_PROB_ENABLED = 10   # §6 probabilistic saturation automaton (0/1)
IP_PROB_K = 11         # initial sat-prob log2 (live automaton value)
IP_LFSR_SEED = 12      # §6 LFSR state, already masked/defaulted
IP_ALLOC_SEED = 13     # XorShift32 state, already masked/defaulted
IP_EST_WINDOW = 14     # §5 BIM-miss window; -1 = no estimator
IP_MAX_STRENGTH = 15   # (1 << ctr_bits) - 1 of the estimator's predictor
IP_WARMUP = 16         # branches excluded from class counts
IP_CTRL_WINDOW = 17    # §6.2 controller window; 0 = no controller
IP_CTRL_MIN = 18       # controller sat-prob floor
IP_CTRL_MAX = 19       # controller sat-prob ceiling
IP_HIGH_MASK = 20      # bitmask of HIGH-confidence class codes
IP_LOG_BIMODAL = 21    # log2 bimodal entries
N_IPARAMS = 22

FP_CTRL_TARGET = 0     # §6.2 target misses per kilo-prediction
FP_CTRL_RELAX = 1      # §6.2 relax fraction
N_FPARAMS = 2

CT_MISPREDICTIONS = 0  # [0]
CT_PRED_BASE = 1       # [1..7]  per-class prediction counts
CT_MISP_BASE = 8       # [8..14] per-class misprediction counts
CT_FINAL_PROB_K = 15   # [15]    final sat-prob log2 (-1: not probabilistic)
N_COUNTS = 16


# ---------------------------------------------------------------------------
# The TAGE and O-GEHL loops.  Each is a step-for-step restatement of
# the reference predictors' predict/classify/train sequence
# (repro.sim.engine.step); tests/equivalence/ holds it to that oracle.
# ---------------------------------------------------------------------------

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* Galois LFSR draw of the Sec 6 probabilistic automaton: k steps, OR of
 * the tap bits.  Identical to the reference Python loop. */
static inline uint32_t lfsr_draw(uint32_t state, int64_t k, int64_t *any_set)
{
    int64_t any = 0;
    for (int64_t i = 0; i < k; i++) {
        uint32_t lsb = state & 1u;
        state >>= 1;
        if (lsb) {
            state ^= 0xA3000000u;
            any = 1;
        }
    }
    *any_set = any;
    return state;
}

/* Saturating counter step, standard or probabilistic (draw consumed
 * only on the transition into saturation, never when prob is 1). */
static inline void ctr_step(int64_t *cell, int64_t taken,
                            int64_t cmax, int64_t cmin,
                            int64_t prob_enabled, int64_t prob_k,
                            uint32_t *lfsr_state)
{
    int64_t c = *cell;
    if (taken) {
        if (c >= cmax)
            return;
        if (prob_enabled && c == cmax - 1 && prob_k > 0) {
            int64_t any_set;
            *lfsr_state = lfsr_draw(*lfsr_state, prob_k, &any_set);
            if (any_set)
                return;
        }
        *cell = c + 1;
    } else {
        if (c <= cmin)
            return;
        if (prob_enabled && c == cmin + 1 && prob_k > 0) {
            int64_t any_set;
            *lfsr_state = lfsr_draw(*lfsr_state, prob_k, &any_set);
            if (any_set)
                return;
        }
        *cell = c - 1;
    }
}

int tage_batch(int64_t n, int64_t n_tagged, int64_t n_cells,
               const int64_t *takens, const int64_t *bim_idx,
               const int64_t *idx_planes, const int64_t *tag_planes,
               const int64_t *iparams, const double *fparams,
               int64_t *counts,
               int64_t want_predictions, uint8_t *predictions,
               int64_t want_classes, uint8_t *classes)
{
    for (int64_t c = 0; c < n_cells; c++) {
        const int64_t *ip = iparams + c * 22;
        int64_t log_tagged = ip[0];
        int64_t cmax = ip[1], cmin = ip[2];
        int64_t u_max = ip[3], u_reset = ip[4];
        int64_t use_alt_enabled = ip[5];
        int64_t use_alt_max = ip[6], use_alt_min = ip[7];
        int64_t update_alt = ip[8], randomized = ip[9];
        int64_t prob_enabled = ip[10], prob_k = ip[11];
        uint32_t lfsr_state = (uint32_t)ip[12];
        uint32_t alloc_state = (uint32_t)ip[13];
        int64_t est_window = ip[14], max_strength = ip[15];
        int64_t warmup = ip[16];
        int64_t ctrl_window = ip[17];
        int64_t ctrl_min = ip[18], ctrl_max = ip[19];
        int64_t high_mask = ip[20], log_bimodal = ip[21];
        double ctrl_target = fparams[c * 2];
        double ctrl_relax = fparams[c * 2 + 1];

        int64_t size = (int64_t)1 << log_tagged;
        int64_t bsize = (int64_t)1 << log_bimodal;
        int64_t *ctr = (int64_t *)calloc((size_t)(n_tagged * size),
                                         sizeof(int64_t));
        int64_t *tag = (int64_t *)calloc((size_t)(n_tagged * size),
                                         sizeof(int64_t));
        int64_t *u = (int64_t *)calloc((size_t)(n_tagged * size),
                                       sizeof(int64_t));
        int64_t *bimodal = (int64_t *)malloc((size_t)bsize
                                             * sizeof(int64_t));
        if (!ctr || !tag || !u || !bimodal) {
            free(ctr); free(tag); free(u); free(bimodal);
            return 1;
        }
        for (int64_t s = 0; s < bsize; s++)
            bimodal[s] = 2;

        int64_t use_alt = 0;
        int64_t mispredictions = 0;
        int64_t since_miss = est_window >= 0 ? est_window : 0;
        int64_t ctrl_high = 0, ctrl_misp = 0;
        int64_t *out = counts + c * 16;

        for (int64_t t = 0; t < n; t++) {
            int64_t taken = takens[t] != 0;

            int64_t provider = 0, provider_idx = 0;
            int64_t alt = 0, alt_idx = 0;
            for (int64_t i = n_tagged - 1; i >= 0; i--) {
                int64_t idx = idx_planes[i * n + t];
                if (tag[i * size + idx] == tag_planes[i * n + t]) {
                    if (provider) {
                        alt = i + 1;
                        alt_idx = idx;
                        break;
                    }
                    provider = i + 1;
                    provider_idx = idx;
                }
            }

            int64_t bidx = bim_idx[t];
            int64_t bctr = bimodal[bidx];

            int64_t ctrv, provider_pred, altpred, prediction, weak;
            if (provider) {
                ctrv = ctr[(provider - 1) * size + provider_idx];
                provider_pred = ctrv >= 0;
                weak = ctrv >= -1 && ctrv <= 0;
                altpred = alt ? (ctr[(alt - 1) * size + alt_idx] >= 0)
                              : (bctr >= 2);
                if (weak && use_alt_enabled && use_alt >= 0)
                    prediction = altpred;
                else
                    prediction = provider_pred;
            } else {
                ctrv = bctr;
                prediction = provider_pred = altpred = bctr >= 2;
                weak = 0;
            }

            int64_t mispredicted = prediction != taken;
            if (mispredicted)
                mispredictions++;
            if (want_predictions)
                predictions[c * n + t] = (uint8_t)prediction;

            if (est_window >= 0) {
                int64_t cls;
                if (provider) {
                    int64_t strength = 2 * ctrv + 1;
                    if (strength < 0)
                        strength = -strength;
                    if (strength == 1)
                        cls = 6;
                    else if (strength == max_strength)
                        cls = 3;
                    else if (strength == max_strength - 2)
                        cls = 4;
                    else
                        cls = 5;
                } else if (bctr == 1 || bctr == 2) {
                    cls = 1;
                } else if (since_miss < est_window) {
                    cls = 2;
                } else {
                    cls = 0;
                }
                if (want_classes)
                    classes[c * n + t] = (uint8_t)cls;
                if (t >= warmup) {
                    out[1 + cls]++;
                    if (mispredicted)
                        out[8 + cls]++;
                }
                if (!provider) {
                    if (mispredicted)
                        since_miss = 0;
                    else if (since_miss < est_window)
                        since_miss++;
                }
                if (ctrl_window > 0 && ((high_mask >> cls) & 1)) {
                    ctrl_high++;
                    if (mispredicted)
                        ctrl_misp++;
                    if (ctrl_high >= ctrl_window) {
                        double rate_mkp = 1000.0 * (double)ctrl_misp
                                          / (double)ctrl_high;
                        if (rate_mkp > ctrl_target && prob_k < ctrl_max)
                            prob_k++;
                        else if (rate_mkp < ctrl_target * ctrl_relax
                                 && prob_k > ctrl_min)
                            prob_k--;
                        ctrl_high = 0;
                        ctrl_misp = 0;
                    }
                }
            }

            int64_t allocate = mispredicted && provider < n_tagged;
            if (provider && weak) {
                if (provider_pred == taken)
                    allocate = 0;
                if (provider_pred != altpred) {
                    if (altpred == taken) {
                        if (use_alt < use_alt_max)
                            use_alt++;
                    } else if (use_alt > use_alt_min) {
                        use_alt--;
                    }
                }
            }

            if (allocate) {
                int64_t start = provider + 1;
                if (randomized) {
                    uint32_t x = alloc_state;
                    while (start < n_tagged) {
                        x ^= x << 13;
                        x ^= x >> 17;
                        x ^= x << 5;
                        if (!(x & 1u))
                            break;
                        start++;
                    }
                    alloc_state = x;
                }
                int64_t allocated = 0;
                for (int64_t j = start - 1; j < n_tagged; j++) {
                    int64_t idx = idx_planes[j * n + t];
                    if (u[j * size + idx] == 0) {
                        ctr[j * size + idx] = taken ? 0 : -1;
                        tag[j * size + idx] = tag_planes[j * n + t];
                        allocated = 1;
                        break;
                    }
                }
                if (!allocated) {
                    for (int64_t j = start - 1; j < n_tagged; j++) {
                        int64_t idx = idx_planes[j * n + t];
                        if (u[j * size + idx] > 0)
                            u[j * size + idx]--;
                    }
                }
            }

            if (provider) {
                int64_t p = provider - 1;
                ctr_step(&ctr[p * size + provider_idx], taken, cmax, cmin,
                         prob_enabled, prob_k, &lfsr_state);
                if (update_alt && u[p * size + provider_idx] == 0) {
                    if (alt) {
                        ctr_step(&ctr[(alt - 1) * size + alt_idx], taken,
                                 cmax, cmin, prob_enabled, prob_k,
                                 &lfsr_state);
                    } else if (taken) {
                        if (bimodal[bidx] < 3)
                            bimodal[bidx]++;
                    } else if (bimodal[bidx] > 0) {
                        bimodal[bidx]--;
                    }
                }
                if (provider_pred != altpred) {
                    int64_t uv = u[p * size + provider_idx];
                    if (provider_pred == taken) {
                        if (uv < u_max)
                            u[p * size + provider_idx] = uv + 1;
                    } else if (uv > 0) {
                        u[p * size + provider_idx] = uv - 1;
                    }
                }
            } else if (taken) {
                if (bctr < 3)
                    bimodal[bidx] = bctr + 1;
            } else if (bctr > 0) {
                bimodal[bidx] = bctr - 1;
            }

            if ((t + 1) % u_reset == 0) {
                for (int64_t s = 0; s < n_tagged * size; s++)
                    u[s] >>= 1;
            }
        }

        out[0] = mispredictions;
        out[15] = prob_enabled ? prob_k : -1;
        free(ctr); free(tag); free(u); free(bimodal);
    }
    return 0;
}

int ogehl_run(int64_t n, int64_t n_tables, int64_t log_entries,
              const int64_t *takens, const int64_t *planes,
              int64_t ctr_max, int64_t ctr_min,
              uint8_t *predictions, uint8_t *high)
{
    int64_t size = (int64_t)1 << log_entries;
    int64_t *tables = (int64_t *)calloc((size_t)(n_tables * size),
                                        sizeof(int64_t));
    if (!tables)
        return 1;
    int64_t threshold = n_tables;
    int64_t threshold_counter = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t total = 0;
        for (int64_t m = 0; m < n_tables; m++)
            total += tables[m * size + planes[m * n + t]];
        total = 2 * total + n_tables;
        int64_t prediction = total >= 0;
        predictions[t] = (uint8_t)prediction;
        int64_t magnitude = total >= 0 ? total : -total;
        high[t] = magnitude >= threshold ? 1 : 0;
        int64_t taken = takens[t] == 1;
        int64_t mispredicted = prediction != taken;
        if (mispredicted || magnitude < threshold) {
            for (int64_t m = 0; m < n_tables; m++) {
                int64_t index = planes[m * n + t];
                int64_t counter = tables[m * size + index];
                if (taken) {
                    if (counter < ctr_max)
                        tables[m * size + index] = counter + 1;
                } else if (counter > ctr_min) {
                    tables[m * size + index] = counter - 1;
                }
            }
        }
        if (mispredicted) {
            threshold_counter++;
            if (threshold_counter >= 4) {
                threshold_counter = 0;
                threshold++;
            }
        } else if (magnitude < threshold) {
            threshold_counter--;
            if (threshold_counter <= -4) {
                threshold_counter = 0;
                if (threshold > 1)
                    threshold--;
            }
        }
    }
    free(tables);
    return 0;
}
"""


# ---------------------------------------------------------------------------
# Provider resolution (lazy, cached, silent).
# ---------------------------------------------------------------------------

#: None until the first query; then {"tage": callable, "ogehl": callable}
#: when the C kernel loaded, or {} when it could not be built.
_KERNELS: dict | None = None
#: Why the C kernel is unavailable (None while it is, or is unresolved).
_UNAVAILABLE: str | None = None
_RESOLVE_LOCK = threading.Lock()


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV, "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> str | None:
    cc = os.environ.get("CC", "").strip()
    if cc and shutil.which(cc):
        return cc
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _build_shared_library() -> Path:
    """Compile the embedded C source into a cached shared library.

    The cache key is the source digest, so editing the C string above
    transparently rebuilds; the build itself is atomic (temp file +
    ``os.replace``) and therefore safe under concurrent workers.
    """
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    directory = _cache_dir()
    so_path = directory / f"repro_kernels_{digest}.so"
    if so_path.exists():
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler found (tried $CC, cc, gcc, clang)")
    directory.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as build:
        source = Path(build) / "kernels.c"
        source.write_text(_C_SOURCE)
        built = Path(build) / "kernels.so"
        result = subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC",
             "-o", str(built), str(source)],
            capture_output=True, text=True, timeout=120,
        )
        if result.returncode != 0:
            raise RuntimeError(
                f"{compiler} failed ({result.returncode}): "
                f"{result.stderr.strip()[:500]}"
            )
        os.replace(built, so_path)
    return so_path


def _load_cext() -> dict:
    """Build (or find) the shared library and bind both kernels."""
    library = ctypes.CDLL(str(_build_shared_library()))

    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    library.tage_batch.restype = ctypes.c_int
    library.tage_batch.argtypes = [
        i64, i64, i64, p_i64, p_i64, p_i64, p_i64, p_i64, p_f64,
        p_i64, i64, p_u8, i64, p_u8,
    ]
    library.ogehl_run.restype = ctypes.c_int
    library.ogehl_run.argtypes = [
        i64, i64, i64, p_i64, p_i64, i64, i64, p_u8, p_u8,
    ]

    def as_i64(array):
        return array.ctypes.data_as(p_i64)

    def cext_tage(takens, bim_idx, idx_planes, tag_planes, iparams,
                  fparams, counts, want_predictions, predictions,
                  want_classes, classes):
        status = library.tage_batch(
            takens.shape[0], idx_planes.shape[0], iparams.shape[0],
            as_i64(takens), as_i64(bim_idx),
            as_i64(idx_planes), as_i64(tag_planes),
            as_i64(iparams), fparams.ctypes.data_as(p_f64),
            as_i64(counts),
            int(want_predictions), predictions.ctypes.data_as(p_u8),
            int(want_classes), classes.ctypes.data_as(p_u8),
        )
        if status != 0:
            raise MemoryError("compiled TAGE kernel ran out of memory")
        return 0

    def cext_ogehl(takens, planes, ctr_max, ctr_min, log_entries,
                   predictions, high):
        status = library.ogehl_run(
            takens.shape[0], planes.shape[0], int(log_entries),
            as_i64(takens), as_i64(planes),
            int(ctr_max), int(ctr_min),
            predictions.ctypes.data_as(p_u8), high.ctypes.data_as(p_u8),
        )
        if status != 0:
            raise MemoryError("compiled O-GEHL kernel ran out of memory")
        return 0

    return {"tage": cext_tage, "ogehl": cext_ogehl}


def _kernels() -> dict:
    """The loaded C kernels ({} when unavailable), resolved once per
    process (until :func:`_reset_provider_cache`)."""
    global _KERNELS, _UNAVAILABLE
    with _RESOLVE_LOCK:
        if _KERNELS is None:
            try:
                _KERNELS = _load_cext()
            except Exception as error:  # noqa: BLE001 — availability probe
                _KERNELS = {}
                _UNAVAILABLE = (
                    f"C kernel build failed ({error}); put a C compiler "
                    "(cc, gcc or clang) on PATH, or name one in $CC, to "
                    "build it"
                )
        return _KERNELS


def active_provider() -> str | None:
    """``cext`` when the C kernel is built and loaded, else None.

    The build probe runs at most once per process.
    """
    return COMPILED_PROVIDER if _kernels() else None


def provider_unavailable_reason() -> str | None:
    """Why the C kernel did not load, naming the remedy (None when it is
    active).

    The one wording behind the capability refusal of TAGE and O-GEHL
    cells in :func:`repro.sim.fast.engine.cell_capability` and the
    :class:`~repro.sim.backends.FastBackendUnsupported` that
    :func:`load_kernel` raises to direct callers.
    """
    return None if _kernels() else _UNAVAILABLE


def _reset_provider_cache() -> None:
    """Test hook: forget the resolution *and* the loaded kernels, so the
    next query probes the compiler and the cache directory afresh."""
    global _KERNELS, _UNAVAILABLE
    with _RESOLVE_LOCK:
        _KERNELS = None
        _UNAVAILABLE = None


def load_kernel(kind: str):
    """The loaded C kernel ``kind`` (``tage`` or ``ogehl``).

    Raises:
        FastBackendUnsupported: when the C kernel could not be built.
    """
    kernels = _kernels()
    if not kernels:
        raise FastBackendUnsupported(_UNAVAILABLE)
    return kernels[kind]
