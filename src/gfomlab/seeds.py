"""Deterministic seed derivation for the whole laboratory.

Scheme (documented, counter-based): a 64-bit master seed is expanded with
``numpy.random.SeedSequence(master, spawn_key=(domain, *indices))``.  Domains
are fixed small integers so derived streams never collide and never depend on
the order in which they are requested:

====================  ======
stream                domain
====================  ======
ensemble A            0
ensemble B            1
state evolution       2
replicate r           (3, r)
problem data          4
prediction paths      5
====================  ======

Matrix entries themselves use a further layer: a Philox generator keyed off
the derived stream draws exactly one 64-bit word per entry in flat row-major
order, so entry (i, j) is a pure function of (seed, i*n + j) and sampling is
order-independent.
"""

import numpy as np

DOMAIN_ENSEMBLE_A = 0
DOMAIN_ENSEMBLE_B = 1
DOMAIN_SE = 2
DOMAIN_REPLICATE = 3
DOMAIN_PROBLEM_DATA = 4
DOMAIN_PREDICT = 5


def child_sequence(master_seed, *path):
    """SeedSequence for the stream at ``path`` under ``master_seed``.

    ``path`` components must be non-negative integers.
    """
    return np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))


def generator(master_seed, *path):
    """A Philox-backed Generator for the derived stream."""
    return np.random.Generator(np.random.Philox(child_sequence(master_seed, *path)))


def fixed_child(seq, *path):
    """Child of an existing SeedSequence at a fixed spawn-key extension.

    Unlike ``seq.spawn``, this never mutates ``seq`` and the child depends
    only on (seq, path), not on how many children were requested before.
    """
    key = tuple(seq.spawn_key) + tuple(int(p) for p in path)
    return np.random.SeedSequence(seq.entropy, spawn_key=key)


def entry_uniforms(seedseq, count, start=0):
    """Uniforms in [0, 1) for flat indices ``start .. start + count - 1``.

    One 64-bit word per index.  Philox is counter-based: word k of the keyed
    stream is a pure function of (key, k), so the value at flat index k never
    depends on how the block is chunked or ordered.  One counter step yields
    four words, so the stream is advanced by ``start // 4`` steps and the
    first ``start % 4`` words of that step are discarded.

    This is the random-access reader of the entry stream.  The samplers
    read the same words sequentially, strip after strip, from one generator
    per matrix; the tests check them against this function.
    """
    bits = np.random.Philox(seedseq)
    bits.advance(start // 4)
    bits.random_raw(start % 4)
    return np.random.Generator(bits).random(int(count))
