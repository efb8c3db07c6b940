"""Self-supervised subsequence reordering for protein encoders.

Shuffle a protein into fixed-count subsequence blocks, encode the
shuffled blocks, normalize block-to-slot scores into a doubly
stochastic matrix, and train the encoder to recover the shuffle. The
pretrained encoder then feeds a compound-protein interaction head that
is evaluated under four seen/unseen scenario splits.

Importing the package loads none of its modules: import each name from
the module that defines it, e.g. ``from seqreorder.pretrain import
pretrain_run``.
"""

__version__ = "0.1.0"
