"""Reference copy of the all-row flat stack that the anchor-row last layer
and the split first layer replaced, kept as a differential test oracle.

Every layer, the first and the last included, runs over every long row of
the one pair and updates the global stream; the candidate vectors are then
gathered at the anchors.
"""

from stepsum.attention import band_pattern, etc_global_local_attention
from stepsum.autodiff import take


def reference_etc_encode(model, assembly, fixed=None):
    """Candidate vectors of ``assembly``, from full layers.

    ``fixed`` is ignored: the reference computes layer 0 whole, so it can
    stand in for ``StepwiseEtc.etc_encode``.
    """
    pattern = band_pattern(assembly.position, model.cfg.local_radius)
    long = take(model.params.token, assembly.long_ids)
    glob = take(model.params.global_kind, assembly.global_kind)
    for layer in model.params.layers:
        long, glob = etc_global_local_attention(
            long, glob, assembly.sentence_id, layer, model.attention, pattern=pattern)
    return take(long, assembly.candidate_anchor)
