"""Shared fixtures: hand-built groupoids, independent of the family constructors."""

import os
import random
from pathlib import Path

import pytest

import etale_kit
from etale_kit.cli import BLAS_THREAD_VARS
from etale_kit.groupoid import FiniteGroupoid
from etale_kit.families import standard_corpus

# one BLAS thread, as the CLI runs, unless the calling shell chose; numpy
# reads these once, when it loads, and no module imported above loads it
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")


@pytest.fixture(scope="session", autouse=True)
def children_import_tested_package():
    """Put the directory of the imported etale_kit first on PYTHONPATH, so
    that the CLI subprocesses run the same package as the in-process tests
    (the source tree under pytest's `pythonpath`, or an installed copy)."""
    root = str(Path(etale_kit.__file__).resolve().parent.parent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", root, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def r2_hand():
    """The pair groupoid on two points, tables written out by hand.

    Arrow ids: 0 = (1,1), 1 = (2,2), 2 = (1,2), 3 = (2,1); the arrow (i,j)
    runs from point j to point i, so (1,2)(2,1) = (1,1).
    """
    compose = [
        (0, 0, 0), (1, 1, 1),
        (0, 2, 2), (2, 1, 2),
        (1, 3, 3), (3, 0, 3),
        (2, 3, 0), (3, 2, 1),
    ]
    return FiniteGroupoid(4, [0, 1], [0, 1, 1, 0], [0, 1, 0, 1], compose, [0, 1, 3, 2])


@pytest.fixture(scope="session")
def z2_hand():
    """Z/2 as a one-unit groupoid: arrows 0 = e, 1 = g."""
    compose = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    return FiniteGroupoid(2, [0], [0, 0], [0, 0], compose, [0, 1])


@pytest.fixture(scope="session")
def bundle_hand():
    """A group bundle: Z/2 at point x (arrows 0, 2), trivial at point y (arrow 1)."""
    compose = [(0, 0, 0), (0, 2, 2), (2, 0, 2), (2, 2, 0), (1, 1, 1)]
    return FiniteGroupoid(3, [0, 1], [0, 1, 0], [0, 1, 0], compose, [0, 1, 2])


@pytest.fixture(scope="session")
def corpus():
    return standard_corpus()


def _relabelled(g, seed):
    """The same groupoid with its arrow ids permuted by a seeded shuffle."""
    new = list(g.arrows())
    random.Random(seed).shuffle(new)

    def moved(table):
        out = [0] * g.arrow_count
        for a, v in enumerate(table):
            out[new[a]] = new[v]
        return out

    return FiniteGroupoid(
        g.arrow_count, [new[x] for x in g.units], moved(g.src), moved(g.rng),
        {(new[a], new[b]): new[c] for (a, b), c in g.compose.items()}, moved(g.inv))


@pytest.fixture(scope="session")
def relabel():
    """The seeded arrow relabelling, for tests that build their own groupoids."""
    return _relabelled


@pytest.fixture(scope="session")
def corpus_and_relabellings(corpus):
    """The corpus, each member followed by three arrow-relabelled copies."""
    out = []
    for name, g in corpus:
        out.append((name, g))
        out += [(f"{name} relabelled by seed {seed}", _relabelled(g, seed))
                for seed in range(3)]
    return out


@pytest.fixture(scope="session")
def twisted_pair16():
    """A homomorphism matrix between two relabelled copies of pair(16), with
    its triple: all units, the arrow map of a shuffled point bijection, and a
    twist of 12th roots of unity (the coboundary of random point phases)."""
    from etale_kit.cocycles import Cocycle, Phase
    from etale_kit.decomposition import DecompositionData, build_hom
    from etale_kit.families import pair_groupoid
    from etale_kit.groupoid import GroupoidHom

    g, h = _relabelled(pair_groupoid(16), 1), _relabelled(pair_groupoid(16), 2)
    rnd = random.Random(3)
    images = list(h.units)
    rnd.shuffle(images)
    point = dict(zip(g.units, images))
    by_ends = {(h.src[x], h.rng[x]): x for x in h.arrows()}
    mapping = tuple(by_ends[point[g.src[a]], point[g.rng[a]]] for a in g.arrows())
    exponent = {x: rnd.randrange(12) for x in g.units}
    twist = Cocycle(g, [Phase.exact(exponent[g.rng[a]] - exponent[g.src[a]], 12)
                        for a in g.arrows()])
    data = DecompositionData(g.units, GroupoidHom(g, h, mapping), twist)
    return data, build_hom(g, h, data)
