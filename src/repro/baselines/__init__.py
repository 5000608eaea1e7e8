"""Baseline serving systems: ServerlessLLM(+), MuxServe, dedicated."""

from ..core.batcher import BatcherInstanceBase
from ..core.serving import BaselineServer
from .muxserve import DedicatedServing, MuxServe, SharedGpuInstance
from .serverless_llm import ServerlessLLM, ServerlessLLMPlus

__all__ = [
    "BaselineServer",
    "BatcherInstanceBase",
    "DedicatedServing",
    "MuxServe",
    "ServerlessLLM",
    "ServerlessLLMPlus",
    "SharedGpuInstance",
]
