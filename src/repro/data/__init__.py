"""Synthetic data substrates: the entity world, documents, corpora, tables."""

from .documents import Document, DocumentRenderer, extract_stated_facts
from .multimodal import ImageRenderer, SimImage, VisualQAModel, classification_accuracy
from .ngram import NGramLM
from .world import Entity, Fact, QAGenerator, Question, World, WorldConfig

__all__ = [
    "Document",
    "DocumentRenderer",
    "extract_stated_facts",
    "ImageRenderer",
    "SimImage",
    "VisualQAModel",
    "classification_accuracy",
    "NGramLM",
    "Entity",
    "Fact",
    "QAGenerator",
    "Question",
    "World",
    "WorldConfig",
]
