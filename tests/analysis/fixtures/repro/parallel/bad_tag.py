"""Fixture: ad-hoc message tags that bypass the mk_tag registry."""


def exchange_with_string_tag(comm, peer, payload):
    comm.send(peer, payload, tag="phi-42")  # ad-hoc string tag
    return comm.recv(peer, tag="phi-42")


def exchange_with_tuple_tag(comm, peer, payload, b):
    comm.isend(peer, payload, tag=("phi", b))  # hand-built tuple
    req = comm.irecv(peer, tag=("pue", b))
    return req.wait()


def exchange_with_int_tag(comm, root, values):
    comm.send(root, values, tag=7)


def exchange_with_arithmetic_tag(comm, peer, payload, b):
    comm.send(peer, payload, tag="geo" + str(b))
