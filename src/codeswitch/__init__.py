"""Toolkit for analysing and classifying language-tagged code-mixed text.

Provides corpus ingestion for word-level language-tagged utterances,
tweet-style preprocessing, switching-pattern features, label/switching
correlation statistics, sparse n-gram text features with chi-squared
selection, and a from-scratch logistic classifier with cross-validation.
The root defines nothing: import the module that holds a name, such as
codeswitch.corpus, codeswitch.switching or codeswitch.cli.
"""
