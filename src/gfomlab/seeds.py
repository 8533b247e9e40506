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
the derived stream spends exactly one 64-bit word on entry (i, j), the word
at flat row-major index i*n + j.  Philox is counter-based, so ``seek`` can
place a generator at any word of its stream, and the samplers draw each
strip of rows at its own word offset, on whichever thread takes it.  The
entry is a pure function of (seed, i*n + j) whatever the strip size, the
thread count or the order in which strips are drawn.
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


def seek(bits, origin, start):
    """Place the Philox ``bits`` at flat word ``start`` of a keyed stream.

    ``origin`` is the stream's ``state`` at word 0, as read from a fresh
    ``Philox``.  One counter step yields four words, so the stream is
    advanced by ``start // 4`` steps and the first ``start % 4`` words of
    that step are discarded.  Setting a saved state is cheaper than keying a
    new generator, so a thread that draws many strips keeps one ``bits``.
    """
    bits.state = origin
    bits.advance(start // 4)
    bits.random_raw(start % 4)


def entry_uniforms(seedseq, count, start=0):
    """Uniforms in [0, 1) for flat indices ``start .. start + count - 1``.

    One 64-bit word per index.  Philox is counter-based: word k of the keyed
    stream is a pure function of (key, k), so the value at flat index k never
    depends on how the block is chunked or ordered.

    This is the reference reader of the entry stream.  The samplers call the
    same ``seek`` once per strip, at word r0*n of the strip's first row r0,
    and the tests check them against this function.
    """
    bits = np.random.Philox(seedseq)
    seek(bits, bits.state, start)
    return np.random.Generator(bits).random(int(count))
