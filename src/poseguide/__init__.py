"""Guided-diffusion inverse kinematics from 3-point rotation/location sensors."""
