"""Evolutionary synthesis of totally self-checking combinational circuits."""
