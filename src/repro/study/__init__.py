"""Declarative study API: registry, typed params, grids, archives.

The public surface every scenario PR targets (see DESIGN.md
"Declarative study API"):

* :class:`ExperimentDef` / :func:`register` / :func:`get_experiment` /
  :func:`experiment_ids` — the typed experiment registry;
* :class:`Param` / :class:`ParamSchema` — parameter schemas (the single
  validation point for the Study facade, the generated CLI, and
  archive loading);
* :class:`Study` / :class:`StudyResult` — declarative runs and
  parameter grids, every cell one merged pool submission;
* :func:`run_experiment` — one-shot convenience the legacy
  ``analysis.experiments`` wrappers delegate to;
* :data:`SCHEMA_VERSION` and ``StudyResult.save()/load()`` — versioned
  JSON + npz result archives; :func:`dump_study` / :func:`parse_study`
  are the same format as an in-memory ``(manifest_text, npz_bytes)``
  pair;
* :class:`StudyCache` / :class:`CacheInfo` / :func:`code_fingerprint` /
  :func:`resolve_cache` — the content-addressed cell cache behind
  ``Study.run(cache=...)`` / ``REPRO_CACHE`` / ``repro cache``.
"""

from .archive import (
    ARCHIVE_FORMAT,
    SCHEMA_VERSION,
    dump_study,
    load_study,
    parse_study,
    save_study,
)
from .cache import CacheInfo, StudyCache, code_fingerprint, resolve_cache
from .params import Param, ParamSchema, schema
from .registry import (
    ExperimentDef,
    ExperimentPlan,
    experiment_ids,
    get_experiment,
    register,
)
from .study import Study, StudyCell, StudyResult, run_experiment

__all__ = [
    "ARCHIVE_FORMAT",
    "CacheInfo",
    "ExperimentDef",
    "ExperimentPlan",
    "Param",
    "ParamSchema",
    "SCHEMA_VERSION",
    "Study",
    "StudyCache",
    "StudyCell",
    "StudyResult",
    "code_fingerprint",
    "dump_study",
    "experiment_ids",
    "get_experiment",
    "load_study",
    "parse_study",
    "register",
    "resolve_cache",
    "run_experiment",
    "save_study",
    "schema",
]
