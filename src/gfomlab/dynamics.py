"""Run symmetric/asymmetric iterations and their corrected variants.

Every executor is one loop over the side table (``programs.Track``).
Histories are stored iterate-major: a side's track has shape (T+1, width)
with row t the iterate after step t.  Row functions receive the transposed
slice (width, t) so the last axis is the iterate index.  Any iterate with a
non-finite entry or magnitude above 1e12 raises DivergenceError naming the
offending step and side.
"""

import numpy as np

from .erm import check_bounded
from .errors import ConfigError
from .programs import asymmetric_tracks, check_tracks, symmetric_tracks


class Trajectory:
    """Iterate history: ``z`` for a symmetric run, ``u`` and ``v`` for a
    two-sided one."""

    def __init__(self, z=None, u=None, v=None):
        self.z = z
        self.u = u
        self.v = v


def _run(a, tracks, T, memory=None):
    """The iteration loop behind every executor.

    Without ``memory`` a side computes A f + add; with it (one table per
    side, see ``check_tracks``) the side computes A f and then subtracts
    memory[t-1][s-1] times the source side's update values of step s, for
    s = 1..t-1+offset in increasing order.
    """
    a = np.asarray(a, dtype=float)
    memory = check_tracks(tracks, T, memory)
    first = next(iter(tracks.values()))
    want = (first.x0.shape[0], tracks[first.source].x0.shape[0])
    if a.shape != want:
        raise ConfigError(f"matrix shape {a.shape} != {want}")
    hist, vals = {}, {}
    for name, tr in tracks.items():
        hist[name] = np.zeros((T + 1, tr.x0.shape[0]))
        hist[name][0] = tr.x0
        check_bounded(hist[name][0], 0, name)
        # the update values of this side, stored at the source's width
        vals[name] = np.zeros((T + 1, tracks[tr.source].x0.shape[0]))
    for t in range(1, T + 1):
        for name, tr in tracks.items():
            x = hist[name]
            mat = a.T if tr.offset else a
            f = tr.mat_fns[t - 1](hist[tr.source][: t + tr.offset].T)
            if memory is None:
                x[t] = mat @ f + tr.add_fns[t - 1](x[:t].T)
            else:
                vals[name][t] = f
                x[t] = mat @ vals[name][t]
                for s in range(1, t + tr.offset):
                    x[t] -= memory[name][t - 1][s - 1] * vals[tr.source][s]
            check_bounded(x[t], t, name)
    return Trajectory(**hist)


def run_symmetric(a, prog):
    return _run(a, prog.tracks(), prog.T)


def run_asymmetric(a, prog):
    return _run(a, prog.tracks(), prog.T)


def run_leave_k_out(a, prog, drop_set):
    """Rerun with the rows AND columns in drop_set zeroed out of A.

    Initialization and functions are unchanged; drop_set = [] reproduces
    run_symmetric(a, prog) bit for bit.
    """
    a = np.asarray(a, dtype=float)
    n = prog.n
    drop = np.asarray(sorted(set(int(i) for i in drop_set)), dtype=int)
    if drop.size and (drop.min() < 0 or drop.max() >= n):
        raise ConfigError("drop_set indices outside [0, n)")
    masked = a.copy()
    if drop.size:
        masked[drop, :] = 0.0
        masked[:, drop] = 0.0
    return run_symmetric(masked, prog)


def run_amp_symmetric(a, fns, onsager, z0):
    """z^(t) = A f_t(history) - sum_s onsager[t][s] * f_s(history at step s).

    ``onsager[t-1]`` has shape (t-1, n): one correction vector per earlier
    step.  Values f_s are the ones computed when step s ran (memory terms).
    """
    return _run(a, symmetric_tracks(fns, None, z0), len(fns), {"z": onsager})


def run_amp_asymmetric(a, u_fns, v_fns, u_onsager, v_onsager, u0, v0):
    """Corrected asymmetric iteration.

    u^(t) = A f_t(v-history)        - sum_{s<t}  u_onsager[t][s] * g_s-values
    v^(t) = A^T g_t(u-hist incl. t) - sum_{s<=t} v_onsager[t][s] * f_s-values
    """
    tracks = asymmetric_tracks(u_fns, None, v_fns, None, u0, v0)
    return _run(a, tracks, len(u_fns), {"u": u_onsager, "v": v_onsager})
