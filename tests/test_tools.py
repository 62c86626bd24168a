"""tools/bench_pairs.py: the revision it records for each checkout."""

import hashlib
import importlib.util
import subprocess
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def git(repo, *argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True).stdout


def test_revision_of_a_clean_a_dirty_and_no_checkout(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.revision(plain) == "unknown"
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "f.txt").write_text("one\n")
    git(repo, "add", "f.txt")
    git(repo, "-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false",
        "commit", "-q", "-m", "one")
    sha = git(repo, "rev-parse", "--short", "HEAD").decode().strip()
    assert bench_pairs.revision(repo) == sha
    (repo / "untracked.txt").write_text("not a change to a tracked file\n")
    assert bench_pairs.revision(repo) == sha
    (repo / "f.txt").write_text("two\n")
    diff = git(repo, "diff", "HEAD")
    assert diff and bench_pairs.revision(repo) == f"{sha}-dirty-{hashlib.sha256(diff).hexdigest()[:12]}"
    git(repo, "add", "f.txt")  # a staged change is uncommitted too
    assert bench_pairs.revision(repo) == f"{sha}-dirty-{hashlib.sha256(diff).hexdigest()[:12]}"
