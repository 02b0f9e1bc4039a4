"""Shared cffi build/load helper for the compiled cores.

:mod:`repro.cpu.epochnative` (timing simulator) and
:mod:`repro.gf.rsnative` (GF/RS decode) each embed a C source string.
:class:`NativeCore` compiles that source once per source hash into a
gitignored ``_native/`` directory next to the owning module and memoizes
the import process-wide.  The build runs in a per-process scratch
directory and is published with an atomic rename, so concurrent workers
never import a half-written extension.  Any failure (no compiler, no
``cffi``, sandboxed build dir) leaves the core unavailable rather than
raising; :func:`gate` turns that into a hard error under a knob's ``on``
policy.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os

#: Fallback reason when the core cannot be built or imported.
UNAVAILABLE = "the native core failed to build (compiler or cffi unavailable)"


class NativeCore:
    """One lazily compiled cffi extension: *cdef* declarations + *csrc* body."""

    def __init__(self, name: str, cdef: str, csrc: str, build_dir: str):
        self.name = name
        self.cdef = cdef
        self.csrc = csrc
        self.build_dir = build_dir
        self.lib = None
        self.ffi = None
        self._attempted = False

    def source_tag(self) -> str:
        return hashlib.sha1((self.cdef + self.csrc).encode()).hexdigest()[:12]

    def load(self):
        """Compile (once) and import the core; None when unavailable."""
        if self._attempted:
            return self.lib
        self._attempted = True
        try:
            from cffi import FFI

            modname = f"{self.name}_{self.source_tag()}"
            sofile = None
            if os.path.isdir(self.build_dir):
                for fn in os.listdir(self.build_dir):
                    if fn.startswith(modname) and fn.endswith(".so"):
                        sofile = os.path.join(self.build_dir, fn)
                        break
            if sofile is None:
                ffi = FFI()
                ffi.cdef(self.cdef)
                tmpdir = os.path.join(self.build_dir, f"build-{os.getpid()}")
                os.makedirs(tmpdir, exist_ok=True)
                ffi.set_source(modname, self.csrc, extra_compile_args=["-O2"])
                built = ffi.compile(tmpdir=tmpdir)
                sofile = os.path.join(self.build_dir, os.path.basename(built))
                os.replace(built, sofile)
            spec = importlib.util.spec_from_file_location(modname, sofile)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            self.ffi, self.lib = mod.ffi, mod.lib
        except Exception:  # no compiler / sandboxed build dir / import failure
            self.lib = None
        return self.lib

    def available(self) -> bool:
        """True when the core is importable (builds on first call)."""
        return self.load() is not None


def gate(knob: str, mode: str, reason: "str | None") -> bool:
    """The ``auto|on`` policy: True when the compiled core should run.

    *reason* names why it cannot (None when it can).  Under ``auto`` that
    falls back quietly; under ``on`` it raises, quoting the reason.
    """
    if reason is None:
        return True
    if mode == "on":
        raise RuntimeError(f"{knob}=on but {reason}")
    return False
