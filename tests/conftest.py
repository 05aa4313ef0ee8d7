"""Shared fixtures: the expensive kernel image and the conformance
corpus are built once per session."""

from __future__ import annotations

import pytest

from repro.exec.grids import get_grid
from repro.kernel.image import shared_image
from repro.kernel.kernel import KernelConfig, MiniKernel
from repro.serve.conformance import (
    generate_trace,
    run_corpus,
    run_trace_under,
)


@pytest.fixture(scope="session")
def image():
    """The default synthetic kernel image (cached per process)."""
    return shared_image()


@pytest.fixture()
def kernel(image):
    """A fresh kernel instance sharing the session image."""
    return MiniKernel(image=image)


@pytest.fixture()
def kernel_eibrs(image):
    """A kernel with eIBRS-style BTB isolation enabled."""
    return MiniKernel(image=image,
                      config=KernelConfig(btb_hardware_isolation=True))


@pytest.fixture()
def proc(kernel):
    return kernel.create_process("test")


@pytest.fixture(scope="session")
def conformance_params():
    """The ``conformance`` grid's defaults: the corpus's seeds, steps,
    tenants and schemes."""
    return get_grid("conformance").defaults()


@pytest.fixture(scope="session")
def conformance_corpus(image):
    """The conformance grid at its defaults (20 seeds over the
    conformance set of schemes), computed once per session."""
    return run_corpus()


@pytest.fixture(scope="session")
def arch_digest(image, conformance_corpus, conformance_params):
    """Memoized ``(scheme, seed) -> digest`` oracle, seeded from
    :func:`conformance_corpus`; schemes outside the conformance set run
    on first use.  Compare two digests with ``arch_divergence``."""
    cache: dict[tuple[str, int], dict] = {
        (scheme, result.seed): digest
        for result in conformance_corpus
        for scheme, digest in result.digests.items()}

    def get(scheme: str, seed: int) -> dict:
        key = (scheme, seed)
        if key not in cache:
            tenants = conformance_params["tenants"]
            trace = generate_trace(seed, conformance_params["steps"],
                                   tenants)
            cache[key] = run_trace_under(scheme, trace, tenants,
                                         image=image)
        return cache[key]

    return get
