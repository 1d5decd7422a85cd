import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path

import biclosure

DELETED = (
    "EAGER_CARRIER_LIMIT",
    "IdealFamily",
    "_check_args",
    "_closed",
    "_coincide_mask",
    "_downclosed_subsets",
    "_hit_table",
    "_hull",
    "_intersection_closure",
    "_iso_key",
    "_refinements",
    "_report",
    "_separating_points",
    "closure_from_base",
    "closures_equal",
    "up_image",
)


def test_submodule_import_gives_the_module():
    import biclosure.represent as m

    assert isinstance(m, types.ModuleType)
    assert callable(m.check_poset)
    assert isinstance(biclosure.represent, types.ModuleType)


def test_public_names_resolve_and_are_unique():
    names = biclosure.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(biclosure, name, None) is not None, name


def test_deleted_names_are_gone():
    import biclosure.closure
    import biclosure.dualspace
    import biclosure.poset

    for name in DELETED:
        assert name not in biclosure.__all__
        for mod in (
            biclosure,
            biclosure.closure,
            biclosure.dualspace,
            biclosure.poset,
            biclosure.represent,
        ):
            assert not hasattr(mod, name), (mod.__name__, name)
    assert not hasattr(biclosure.Poset, "_profiles")
    assert "represent" not in biclosure.__all__
    assert callable(biclosure.represent_general)


def test_stone_space_extends_the_closure_space():
    space = biclosure.stone(biclosure.boolean_algebra(3))
    assert isinstance(space, biclosure.ClosureSpace)
    assert [f.name for f in dataclasses.fields(space)] == [
        "subspace",
        "closure",
        "clopen",
        "kernels",
    ]


def test_no_process_pool_module_is_loaded_until_a_pool_starts():
    # only BICLOSURE_THREADS > 1 starts a pool; a serial check must not
    # pay for importing multiprocessing, concurrent.futures or the
    # logging module the latter loads
    code = (
        "import sys, biclosure\n"
        "biclosure.check_poset(biclosure.chain(3))\n"
        "biclosure.sweep_catalog(2)\n"
        "names = ('multiprocessing', 'concurrent.futures', 'logging')\n"
        "print([name for name in names if name in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env.pop("BICLOSURE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "[]\n"
