"""Deterministic synthetic datasets standing in for the paper's corpora.

* :func:`make_mnist_like` — structured 28×28 grayscale digit-style
  classes (LeNet-5 and Figure 2 experiments);
* :func:`make_image_classification` — CIFAR/ImageNet-style structured
  color images (ResNet experiments);
* :class:`SyntheticTextCorpus` — Zipf-distributed token sequences with
  learnable bigram structure plus masked-LM example construction
  (BERT experiments);
* :func:`make_command_sequences` — sequence-classification data for the
  production-LSTM proxy (Section 5.5);
* :class:`ShardedSampler` — per-rank data partitioning with epoch
  shuffling, the "user is responsible for partitioning data across
  nodes" contract of Horovod.
"""

from repro.data.synthetic import (
    make_mnist_like,
    make_image_classification,
    make_command_sequences,
    train_test_split,
)
from repro.data.text_like import SyntheticTextCorpus, mask_tokens, masked_lm_stream
from repro.data.sampler import BatchIterator, ElasticBatchIterator, ShardedSampler

__all__ = [
    "make_mnist_like",
    "make_image_classification",
    "make_command_sequences",
    "train_test_split",
    "SyntheticTextCorpus",
    "mask_tokens",
    "masked_lm_stream",
    "ShardedSampler",
    "BatchIterator",
    "ElasticBatchIterator",
]
