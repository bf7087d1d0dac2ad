"""Loader of the compiled receiver kernel (``_rxkernel.c``).

The kernel runs the frame start under correlated Rayleigh fading --
each link's AR(1) step fused into the receiver bookkeeping -- and the
whole frame end -- withdrawal, SINR decisions,
fate tallies and deliveries -- in C over the channel's
:class:`~repro.net.channel.PhyLedger` columns, bit for bit as
:class:`~repro.net.channel.WirelessChannel`'s Python passes (see the C
source for the contract).  There is no install step: the
first :func:`load` in a process compiles the source with the
interpreter's own C compiler (``sysconfig``'s ``CC``, or ``$CC``) into
``__pycache__`` next to this file, under a name that hashes the source,
the flags and the interpreter ABI, so an edited source never loads a
stale artifact.  The artifact is built in a temporary directory and
moved into place, so processes building at once each load a complete
file.  Compiler output is captured, never printed: a benchmark child
reports on its last stdout line.

Every channel finalized where :func:`load` returns the module runs on
it.  Without a working compiler :func:`load` returns ``None`` and
:func:`unavailable_reason` says why, and channels run the pure-Python
passes.  Inside a :func:`disabled` block the kernel reads as
unavailable, so the channels finalized there run in Python too: it is
how tests and benchmarks put the two paths side by side.

:class:`KernelRandom` is how the kernel owns a ``random.Random`` stream:
it continues a stream's exact state in the kernel's MT19937, and its
``random`` *is* the C generator, so ``gauss``, ``expovariate`` and the
kernel's frame pass all draw from the one sequence.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import random
import shutil
import tempfile
from contextlib import contextmanager
from types import ModuleType
from typing import Iterator, Optional, Tuple

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rxkernel.c")
BUILD_DIR = os.path.join(os.path.dirname(SOURCE), "__pycache__")
#: The build runs in two steps, preprocess then compile, because the
#: compiler's peak memory counts toward the peak RSS of the process that
#: builds: splitting the steps saves about 5 MiB, and -O1 another 4 MiB
#: over -O2 (the kernel's time goes to C-API calls, which -O2 does not
#: speed up measurably).  No -ffast-math, ever: the kernel must round as
#: CPython does.  With -fno-builtin-sin/-cos the compiler cannot fuse a
#: cos/sin pair into one sincos call, so the kernel calls the libm
#: functions ``math`` calls.
PREPROCESS_FLAGS = ("-E", "-DNDEBUG")
CFLAGS = (
    "-O1", "-ffp-contract=off", "-fno-builtin-sin", "-fno-builtin-cos",
    "-fPIC", "-shared",
)

_loaded: Optional[Tuple[Optional[ModuleType], Optional[str]]] = None
#: Why the kernel reads as unavailable inside a :func:`disabled` block.
_disabled: Optional[str] = None


class KernelBuildError(RuntimeError):
    """The kernel could not be compiled or imported."""


def artifact_path(
    source: Optional[str] = None, build_dir: Optional[str] = None
) -> str:
    """Where ``source`` compiles to: a name hashing its bytes and flags.

    ``source`` and ``build_dir`` default to :data:`SOURCE` and
    :data:`BUILD_DIR`.
    """
    source = source or SOURCE
    build_dir = build_dir or BUILD_DIR
    with open(source, "rb") as handle:
        digest = hashlib.sha256(handle.read())
    digest.update(" ".join(PREPROCESS_FLAGS + CFLAGS).encode())
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(build_dir, f"_rxkernel.{digest.hexdigest()[:16]}{suffix}")


def build(source: Optional[str] = None, build_dir: Optional[str] = None) -> str:
    """Compile ``source`` unless its artifact exists; the artifact's path."""
    source = source or SOURCE
    build_dir = build_dir or BUILD_DIR
    target = artifact_path(source, build_dir)
    if os.path.exists(target):
        return target
    # Imported here: a process that loads a built kernel never pays
    # for them.
    import shlex
    import subprocess
    import sysconfig

    compiler = shlex.split(
        os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    )
    os.makedirs(build_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="_rxkernel.", dir=build_dir)
    preprocessed = os.path.join(scratch, "_rxkernel.i")
    built = os.path.join(scratch, os.path.basename(target))
    steps = [
        [*PREPROCESS_FLAGS, f"-I{sysconfig.get_paths()['include']}",
         source, "-o", preprocessed],
        [*CFLAGS, preprocessed, "-o", built, "-lm"],
    ]
    try:
        for arguments in steps:
            command = compiler + arguments
            try:
                done = subprocess.run(
                    command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT, text=True,
                )
            except OSError as exc:
                raise KernelBuildError(
                    f"cannot run compiler {command[0]!r}: {exc}"
                ) from exc
            if done.returncode != 0:
                tail = done.stdout.strip().splitlines()[-3:]
                raise KernelBuildError(
                    f"compiler {command[0]!r} exited with status "
                    f"{done.returncode}"
                    + (": " + " | ".join(tail) if tail else "")
                )
        os.replace(built, target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return target


def import_artifact(path: str) -> ModuleType:
    """Import a built kernel from ``path``."""
    spec = importlib.util.spec_from_file_location("repro.phy._rxkernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load() -> Optional[ModuleType]:
    """The kernel module, built on first use; ``None`` when unavailable.

    The outcome is remembered for the life of the process.
    """
    global _loaded
    if _disabled is not None:
        return None
    if _loaded is None:
        try:
            _loaded = (import_artifact(build()), None)
        except (KernelBuildError, OSError, ImportError) as exc:
            _loaded = (None, str(exc) or type(exc).__name__)
    return _loaded[0]


def unavailable_reason() -> Optional[str]:
    """Why :func:`load` returns ``None`` (``None`` when the kernel loads)."""
    if _disabled is not None:
        return _disabled
    load()
    return _loaded[1]


@contextmanager
def disabled() -> Iterator[None]:
    """A block in which :func:`load` returns ``None``.

    Channels finalized inside run the pure-Python passes for their
    whole life; the loader's cached outcome is left as it was.
    """
    global _disabled
    previous = _disabled
    _disabled = "disabled by repro.phy.kernel.disabled()"
    try:
        yield
    finally:
        _disabled = previous


class KernelRandom(random.Random):
    """A ``random.Random`` whose generator is the kernel's MT19937.

    ``random`` is bound per instance to the C ``Stream.random``, and
    ``getstate``/``setstate``/``seed``/``getrandbits`` go through the
    same stream, so the inherited methods (``gauss``, ``expovariate``,
    ``randrange``...) draw exactly what a plain ``random.Random`` in the
    same state would.  ``stream`` is what the kernel's passes draw from.
    """

    def __init__(self, x=None) -> None:
        module = load()
        if module is None:
            raise KernelBuildError(unavailable_reason())
        self.stream = module.Stream()
        self.random = self.stream.random
        self.seed(x)

    @classmethod
    def continuing(cls, rng: random.Random) -> "KernelRandom":
        """A kernel stream that continues ``rng`` from its current state."""
        clone = cls(0)
        clone.setstate(rng.getstate())
        return clone

    def random(self) -> float:  # replaced per instance by the C method
        return self.stream.random()

    def seed(self, a=None, version=2) -> None:
        super().seed(a, version)
        self.stream.setstate(super().getstate()[1])

    def getstate(self):
        return self.VERSION, self.stream.getstate(), self.gauss_next

    def setstate(self, state) -> None:
        version, internal, gauss_next = state
        if version != self.VERSION:
            raise ValueError(
                f"state with version {version} passed to "
                f"Random.setstate() of version {self.VERSION}"
            )
        self.stream.setstate(tuple(internal))
        self.gauss_next = gauss_next

    def getrandbits(self, k: int) -> int:
        return self.stream.getrandbits(k)
