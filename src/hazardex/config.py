"""Pipeline configuration: YAML file, defaults, HAZARDEX_* environment overrides.

Relative paths in a config file resolve against the file's directory, so a
config can travel with its fixtures. Environment overrides use the form
HAZARDEX_<SECTION>_<KEY>, e.g. HAZARDEX_RUN_WORKDIR or HAZARDEX_API_PAGE_SIZE,
and are parsed as YAML scalars.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from .corpus import BUILTIN_FOODS, FoodSpec

ENV_PREFIX = "HAZARDEX_"

_DEFAULTS: dict = {
    "api": {
        "endpoint": None,
        "cutoff_date": date(2023, 4, 2),
        "page_size": 1000,
        "rate_limit": 5.0,
        "max_retries": 5,
    },
    "lexicon": {
        "chebi_dump": None,
        "stoplist": None,
    },
    "prompting": {
        "templates_dir": None,
    },
    "backend": {
        "kind": "mock",
        "url": None,
        "model": "",
        "fixtures_dir": None,
        "use_messages": False,
    },
    "decoding": {
        "max_new_tokens": 1024,
        "repetition_penalty": 1.0,
    },
    "run": {
        "workdir": "work",
        "concurrency": 1,
    },
    "evaluation": {
        "gold": None,
    },
}

_SECTIONS = tuple(_DEFAULTS)

_BACKEND_KINDS = ("mock", "http")


class ConfigError(Exception):
    """The configuration is unreadable, ill-typed or incomplete for a command."""


@dataclass
class PipelineConfig:
    api_endpoint: str | None
    cutoff_date: date
    page_size: int
    rate_limit: float
    max_retries: int
    chebi_dump: Path | None
    stoplist_path: Path | None
    templates_dir: Path | None
    backend_kind: str
    backend_url: str | None
    backend_model: str
    fixtures_dir: Path | None
    use_messages: bool
    max_new_tokens: int
    repetition_penalty: float
    workdir: Path
    concurrency: int
    gold_path: Path | None
    foods: dict[str, FoodSpec] = field(default_factory=dict)

    def food(self, name: str) -> FoodSpec:
        try:
            return self.foods[name]
        except KeyError:
            known = ", ".join(sorted(self.foods))
            raise ConfigError(f"unknown food {name!r}; configured foods: {known}") from None


def _merge(base: dict, override: dict, context: str) -> None:
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {context}{key}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _merge(base[key], value, f"{context}{key}.")
        else:
            base[key] = value


def _env_overrides(environ) -> dict:
    tree: dict = {}
    for name, raw in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX) :].lower()
        section, _, key = rest.partition("_")
        if section not in _SECTIONS or not key:
            continue
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        tree.setdefault(section, {})[key] = value
    return tree


def _as_path(value, base_dir: Path | None) -> Path | None:
    if value is None:
        return None
    path = Path(str(value))
    if not path.is_absolute() and base_dir is not None:
        path = base_dir / path
    return path


def _as_date(value, context: str) -> date:
    if isinstance(value, date):
        return value
    try:
        return date.fromisoformat(str(value))
    except ValueError as exc:
        raise ConfigError(f"{context}: not an ISO date: {value!r}") from exc


def _as_int(value, context: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: not an integer: {value!r}") from exc


def _as_float(value, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: not a number: {value!r}") from exc


def _as_http_url(value, context: str) -> str | None:
    """`value` if it is an http:// or https:// URL with a host; unset stays unset."""
    if value is None or value == "":
        return value
    url = str(value)
    try:
        parts = urlsplit(url)
        valid = parts.scheme in ("http", "https") and bool(parts.hostname)
        parts.port  # noqa: B018 - raises ValueError for a port that is not a number
    except ValueError:
        valid = False
    if not valid:
        raise ConfigError(f"{context}: expected an http:// or https:// URL with a host, got {url!r}")
    return url


def _parse_foods(raw) -> dict[str, FoodSpec]:
    if raw is None:
        return dict(BUILTIN_FOODS)
    if not isinstance(raw, dict):
        raise ConfigError("foods: expected a mapping of name -> keyword list")
    foods: dict[str, FoodSpec] = {}
    for name, keywords in raw.items():
        if isinstance(keywords, str):
            keywords = [keywords]
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise ConfigError(f"foods.{name}: expected a list of keyword strings")
        foods[str(name)] = FoodSpec(str(name), frozenset(keywords))
    return foods


def load_config(
    path: str | Path | None = None,
    *,
    workdir: str | Path | None = None,
    environ=None,
) -> PipelineConfig:
    """Assemble the effective configuration.

    Precedence, lowest to highest: built-in defaults, config file, environment
    overrides, then the explicit workdir argument (the CLI --workdir flag).
    """
    environ = os.environ if environ is None else environ
    tree = copy.deepcopy(_DEFAULTS)
    foods_raw = None
    base_dir: Path | None = None
    if path is not None:
        path = Path(path)
        base_dir = path.parent
        try:
            loaded = yaml.safe_load(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        foods_raw = loaded.pop("foods", None)
        _merge(tree, loaded, "")
    _merge(tree, _env_overrides(environ), "")

    api, lex, prompting = tree["api"], tree["lexicon"], tree["prompting"]
    backend, decoding, run, evaluation = (
        tree["backend"],
        tree["decoding"],
        tree["run"],
        tree["evaluation"],
    )
    if backend["kind"] not in _BACKEND_KINDS:
        raise ConfigError(
            f"backend.kind: expected one of {', '.join(_BACKEND_KINDS)}, got {backend['kind']!r}"
        )
    effective_workdir = Path(workdir) if workdir is not None else _as_path(run["workdir"], base_dir)
    return PipelineConfig(
        api_endpoint=_as_http_url(api["endpoint"], "api.endpoint"),
        cutoff_date=_as_date(api["cutoff_date"], "api.cutoff_date"),
        page_size=_as_int(api["page_size"], "api.page_size"),
        rate_limit=_as_float(api["rate_limit"], "api.rate_limit"),
        max_retries=_as_int(api["max_retries"], "api.max_retries"),
        chebi_dump=_as_path(lex["chebi_dump"], base_dir),
        stoplist_path=_as_path(lex["stoplist"], base_dir),
        templates_dir=_as_path(prompting["templates_dir"], base_dir),
        backend_kind=str(backend["kind"]),
        backend_url=_as_http_url(backend["url"], "backend.url"),
        backend_model=str(backend["model"] or ""),
        fixtures_dir=_as_path(backend["fixtures_dir"], base_dir),
        use_messages=bool(backend["use_messages"]),
        max_new_tokens=_as_int(decoding["max_new_tokens"], "decoding.max_new_tokens"),
        repetition_penalty=_as_float(decoding["repetition_penalty"], "decoding.repetition_penalty"),
        workdir=effective_workdir,
        concurrency=_as_int(run["concurrency"], "run.concurrency"),
        gold_path=_as_path(evaluation["gold"], base_dir),
        foods=_parse_foods(foods_raw),
    )
