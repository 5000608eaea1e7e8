"""Baseline serving systems: ServerlessLLM(+), MuxServe, dedicated."""

from ..core.batcher import BatcherInstanceBase
from .muxserve import DedicatedServing, MuxServe, SharedGpuInstance
from .serverless_llm import ServerlessLLM, ServerlessLLMPlus

__all__ = [
    "BatcherInstanceBase",
    "DedicatedServing",
    "MuxServe",
    "ServerlessLLM",
    "ServerlessLLMPlus",
    "SharedGpuInstance",
]
