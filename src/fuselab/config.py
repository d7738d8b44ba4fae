"""Run-configuration resolution: flags > FUSELAB_* environment > config file > defaults.

The config file is a flat `key = value` text file (fuselab.toml by default);
values are parsed with the same converters as environment strings. Every
command echoes its fully resolved settings into the output directory as
run-config.json so a run can be reproduced from its artifacts alone;
read_json_object reads such a record, or a model.json, back, and read_text
reads any data file's text.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import DataError

ENV_PREFIX = "FUSELAB_"
DEFAULT_CONFIG_FILE = "fuselab.toml"


def parse_bool(value: str) -> bool:
    text = value.strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def parse_fractions(value: str) -> tuple[float, float, float]:
    """The train, val and test fractions of a `--fractions` value: three in (0,1) that sum to 1."""
    fractions = tuple(float(v) for v in value.split(","))
    if len(fractions) != 3:
        raise ValueError(f"fractions need three comma-separated values, got {value!r}")
    if any(not 0.0 < f < 1.0 for f in fractions):
        raise ValueError(f"fractions must be three values in (0,1), got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    return fractions


def parse_seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return seed


def read_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment, quotes are stripped. A config file
    is a usage input: each of its faults, undecodable bytes too, is a ValueError naming it."""
    try:
        lines = read_text(path).splitlines()
    except DataError as exc:  # exit 2, where a data file's undecodable bytes exit 3
        raise ValueError(str(exc)) from exc
    values = {}
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip().strip("'\"")
    return values


class Resolver:
    """Layers one command's settings; records everything it resolved."""

    def __init__(self, args):
        self.args = args
        explicit = getattr(args, "config", None)
        if explicit:
            self.file_values = read_config_file(explicit)
        elif Path(DEFAULT_CONFIG_FILE).exists():
            self.file_values = read_config_file(DEFAULT_CONFIG_FILE)
        else:
            self.file_values = {}
        self.resolved = {}

    def get(self, key: str, convert, default):
        value = getattr(self.args, key, None)
        if value is None:
            value = os.environ.get(ENV_PREFIX + key.upper())
        if value is None:
            value = self.file_values.get(key)
        out = default if value is None else convert(value)
        self.resolved[key] = out
        return out

    def write_record(self, out_dir) -> None:
        record = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(self.resolved.items())
        }
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "run-config.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def read_text(path) -> str:
    """The text of the data file at path; DataError naming the file if its bytes do not decode."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: undecodable text ({exc})") from exc


def read_json_object(path) -> dict:
    """The JSON object that the file at path holds; DataError if it holds anything else."""
    text = read_text(path)
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed JSON, or nested deeper than the parser recurses
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise DataError(f"{path}: expected a JSON object")
    return value
