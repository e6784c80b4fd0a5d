"""Evaluation harnesses: Table I, Fig. 1, Fig. 2, and report helpers."""

import pytest

from repro.eval.figures import (
    expected_fig2_sequence,
    fig1_access_matrix,
    fig2_step_table,
    format_fig1,
)
from repro.eval.report import format_paper_vs_measured, format_table
from repro.eval.table1 import PAPER_TABLE1, format_table1, run_table1
from repro.trustzone.worlds import make_platform

KEY_BITS = 768


# --- report helpers ---------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "long-header"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "long-header" in lines[0]
    assert set(lines[1]) <= {"-", " "}


def test_format_paper_vs_measured():
    text = format_paper_vs_measured([("accuracy", "75%", "75%")])
    assert "paper" in text and "measured" in text and "75%" in text


# --- Fig. 1 ------------------------------------------------------------------

def test_fig1_matrix_base_platform():
    platform = make_platform(key_bits=KEY_BITS)
    matrix = fig1_access_matrix(platform)
    secure = matrix["secure-world"]
    assert secure["secure-world"] is True
    assert secure["commodity-os"] is False
    assert secure["dma-engine"] is False


def test_fig1_matrix_with_enclave(omg_session):
    """Fig. 1's partitioning with an initialized OMG enclave deployed."""
    matrix = fig1_access_matrix(omg_session.platform)
    secure = matrix["secure-world"]
    assert secure["commodity-os"] is False
    assert secure["secure-world"] is True
    enclave_row = matrix[omg_session.instance.region.name]
    assert enclave_row["commodity-os"] is False  # two-way isolation
    assert enclave_row["dma-engine"] is False    # DMA attack protection
    assert enclave_row["secure-world"] is True   # trusted IO path
    assert enclave_row["bound-core"] is True     # the SA's own core
    shm_row = matrix[omg_session.instance.os_shm_region.name]
    assert shm_row["commodity-os"] is True  # untrusted mailbox is open


def test_format_fig1_renders(pretrained_model):
    platform = make_platform(key_bits=KEY_BITS)
    text = format_fig1(platform)
    assert "HiKey 960" in text
    assert "secure-world" in text
    assert "microphone" in text


# --- Fig. 2 ------------------------------------------------------------------

def test_fig2_sequence_constant():
    assert expected_fig2_sequence() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_fig2_table_renders(omg_session):
    from repro.audio.speech_commands import SyntheticSpeechCommands

    clip = SyntheticSpeechCommands().render("yes", 0)
    omg_session.recognize_via_microphone(clip.samples)
    text = fig2_step_table(omg_session)
    assert "I. preparation" in text
    assert "Enc(model, K_U)" in text
    assert "trusted audio input" in text
    assert "total" in text


# --- Table I -------------------------------------------------------------

@pytest.fixture(scope="module")
def table1_rows(pretrained_model):
    return run_table1(model=pretrained_model, per_class=10,
                      key_bits=KEY_BITS)


def test_table1_accuracy_matches_paper(table1_rows):
    assert table1_rows["native"].accuracy == pytest.approx(
        PAPER_TABLE1["native"]["accuracy"], abs=0.08)
    # Identical model bytes => identical predictions with and without OMG.
    assert table1_rows["omg"].accuracy == table1_rows["native"].accuracy


def test_table1_runtime_matches_paper(table1_rows):
    assert table1_rows["native"].runtime_ms == pytest.approx(
        PAPER_TABLE1["native"]["runtime_ms"], rel=0.02)
    assert table1_rows["omg"].runtime_ms == pytest.approx(
        PAPER_TABLE1["omg"]["runtime_ms"], rel=0.02)


def test_table1_overhead_shape(table1_rows):
    """OMG is slower, but by ~2 %, not more."""
    ratio = table1_rows["omg"].runtime_ms / table1_rows["native"].runtime_ms
    assert 1.0 < ratio < 1.05


def test_table1_realtime_factor(table1_rows):
    assert table1_rows["native"].realtime_factor == pytest.approx(
        PAPER_TABLE1["realtime_factor"], rel=0.1)
    assert table1_rows["native"].audio_seconds == pytest.approx(100.0)
    assert table1_rows["native"].num_clips == 100


def test_table1_formatting(table1_rows):
    text = format_table1(table1_rows)
    assert 'TensorFlow Lite "micro" (OMG)' in text
    assert "379" in text and "387" in text
