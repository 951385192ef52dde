"""No cache in the package grows for the life of the process: every functools.lru_cache
wrapper of the eight modules, at module level or on a class, has a finite maxsize.  A Cartan
type keeps its invariants as attributes, so root_data has one per-type cache, the factory of
types, besides the records and the explicit quotients."""

import importlib

MODULES = ("cli", "lattice", "root_data", "central_ext", "loop_symbols",
           "dynkin", "twisted_dual", "rep_check")


def _lru_caches():
    """(qualified name, wrapper) for each lru_cache wrapper the modules define."""
    for short in MODULES:
        mod = importlib.import_module(f"loopdual.{short}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported: its own module yields it
            if hasattr(obj, "cache_parameters"):
                yield f"{short}.{name}", obj
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if hasattr(member, "cache_parameters"):
                        yield f"{short}.{name}.{attr}", member


def test_every_lru_cache_has_a_finite_bound():
    caches = dict(_lru_caches())
    assert {"root_data.root_datum", "rep_check._engine", "rep_check._Engine.tensor"} <= set(caches)
    assert {name for name in caches if name.startswith("root_data.")} == \
        {"root_data._cartan_type", "root_data.root_datum", "root_data._quotient_lattices"}
    unbounded = sorted(name for name, fn in caches.items()
                       if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == []
