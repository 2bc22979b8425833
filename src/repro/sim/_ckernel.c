/* Packed struct-of-arrays envelope pool, the send path and the fused tick
 * loop of the sim kernel, the cold-key hash, the counter-based draws, the
 * random scheduler's block permutations and a protocol layer's Omega read.
 *
 * Three layers of the kernel live here (stable_hash, block_permutation,
 * draw_unit and draw_below, which repro.sim.types binds in place of their
 * Python bodies, and layer_omega, repro.sim.stack's Layer._omega, have
 * their own sections near the end):
 *
 * 1. The storage layer of the data plane: the slot columns (deliver_at,
 *    seq, sender, send_time, payload), the free list, and the
 *    per-receiver shard heaps ordered by (deliver_at, seq).  The merge
 *    layer -- the `_next_at` cursors, the pending counts and the
 *    network-wide `_counts` -- is array('q') state of every Network
 *    (network.py), and the scheduler's `_local_event` / `_next_timeout`
 *    cursors and its clock `_clock` (time, last_live_tick, _step_index)
 *    are array('q') too: each call here exports those buffers once and
 *    reads and writes them through int64_t pointers, so Python and C
 *    share one copy and C mirrors none of it.  Every exit releases every
 *    buffer.
 *
 * 2. The send side (send_packed / send_all_packed): delay draw through
 *    the network's delay model -- a user object, the one Python call --
 *    the delay, profile-length and sequence checks of PackedNetwork with
 *    the same exceptions, the pool push and the merge-layer update.  One
 *    implementation behind CompiledPackedNetwork's two send methods and
 *    run_loop's outbox expansion.
 *
 * 3. run_loop(sim, t_end, store, metrics): the event engine's tick loop,
 *    hosted in C (kernel="compiled-loop"), under either schedule:
 *    round-robin (the loop of kernel.run_fused_rr) or seeded random (the
 *    loop of Simulation._advance_event_random; no Python fused twin).
 *    The loop owns the due-check, the shard pops, timeout firing, the
 *    handler dispatch trampoline -- for a ProtocolStack that hands a
 *    dispatch plan, the stack's own message framing, timeout fan-out and
 *    pending check (plan_message, plan_timeout) -- outbox expansion
 *    through (2), the local-cursor refresh, the next-event scan over the
 *    per-process cursors (the loop of Simulation._next_event_query) and,
 *    under random scheduling, the block permutations and the walk of the
 *    block an event falls in, the idle-span count of a run that
 *    materializes no idle steps, under either schedule
 *    (loop_count_idle), the clock, the step context's effect lists (taken
 *    once per call, emptied in place after each step consumes them) and
 *    its pid / time / fd_value slots (stored through the member offsets
 *    ctx_slot resolves once per call), and -- at record="full" -- the
 *    StepStore rows, staged in C and appended in bulk (stage_flush), a
 *    crash-free idle span's under round-robin included (loop_fill_idle);
 *    it calls back into Python only for process handlers (a planned
 *    stack's layer handlers and, when something is pending, its drain),
 *    detector queries before the history's settle tick (sim._fd_settle:
 *    from it on every step takes the settled value), the delay model, the
 *    other idle spans of a run that materializes them (`_skip_span_rr`),
 *    and step observers' on_step_raw other than a leading
 *    MetricsRecorder's (whose counts it folds itself, loop_fold_flush).
 *    Every mutation of a raise-free step mirrors the Python loop's order
 *    of effects so run records, counters and schedule state stay
 *    byte-identical (pinned by tests/test_kernel.py and
 *    tests/test_kernel_stateful.py).  A raise ends the run
 *    (repro.sim.scheduler): the failure paths only release what they
 *    hold, and flush the metrics fold and the staged rows.
 *
 * Invariants shared with the pure-Python PackedNetwork:
 *   - seq fits in 40 bits, slot index in 24 (both enforced here on the
 *     send path).
 *   - deliver_at < NO_MESSAGE (2**63 - 1) always: the send path refuses
 *     a delivery time at or past it, because an empty queue's `_next_at`
 *     cursor reads NO_MESSAGE.  NEVER (2**62) is a queued message that
 *     never arrives, so the two stay distinct.
 *   - pop_due_batch() reports the receiver's next head deliver_at (or -1)
 *     so the Python side can maintain its `_next_at` cursor without a peek
 *     round-trip.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* the member-descriptor constants (Python.h has them from 3.12 on) */
#ifndef Py_T_OBJECT_EX
#include "structmember.h"
#define Py_T_OBJECT_EX T_OBJECT_EX
#define Py_READONLY READONLY
#endif

/* sha256 of this file as setup.py read it, exported as
 * _ckernel.SOURCE_DIGEST: repro/sim/_compiled.py refuses a build whose
 * digest differs from the _ckernel.c lying beside it (a stale .so). */
#ifndef SOURCE_DIGEST
#error "build through setup.py, which defines SOURCE_DIGEST"
#endif

#define SLOT_LIMIT (1 << 24)

/* repro.sim.types.NO_MESSAGE == 2**63 - 1: what an empty queue's
 * next-delivery cursor reads. */
#define NO_MESSAGE_I64 INT64_MAX

/* Network._counts slots (network.py's _SENT, _DELIVERED).
 * SENT is also the next send sequence: every queued message takes one. */
enum { SENT, DELIVERED, N_COUNTS };

typedef struct {
    int32_t *items;
    Py_ssize_t len;
    Py_ssize_t cap;
} Shard;

typedef struct {
    PyObject_HEAD
    Py_ssize_t n;          /* number of receivers / shards */
    Py_ssize_t cap;        /* allocated column capacity */
    Py_ssize_t used;       /* high-water slot count */
    int64_t *col_deliver;
    int64_t *col_seq;
    int64_t *col_send_time;
    int32_t *col_sender;
    PyObject **col_payload; /* owned refs; NULL for free slots */
    int32_t *free_stack;
    Py_ssize_t free_top;    /* number of entries on the free stack */
    Shard *shards;
} PoolObject;

/* -- shard heap ordered by (deliver_at, seq) ----------------------------- */

static inline int
slot_less(PoolObject *self, int32_t a, int32_t b)
{
    int64_t da = self->col_deliver[a], db = self->col_deliver[b];
    if (da != db)
        return da < db;
    return self->col_seq[a] < self->col_seq[b];
}

/* Room for one more slot in `shard`: what shard_push takes. */
static int
shard_room(Shard *shard)
{
    if (shard->len < shard->cap)
        return 0;
    Py_ssize_t new_cap = shard->cap ? shard->cap * 2 : 8;
    int32_t *items = PyMem_Realloc(shard->items, new_cap * sizeof(int32_t));
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    shard->items = items;
    shard->cap = new_cap;
    return 0;
}

static void
shard_push(PoolObject *self, Shard *shard, int32_t slot)
{
    Py_ssize_t pos = shard->len++;
    int32_t *heap = shard->items;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!slot_less(self, slot, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = slot;
}

static int32_t
shard_pop(PoolObject *self, Shard *shard)
{
    int32_t *heap = shard->items;
    int32_t top = heap[0];
    Py_ssize_t len = --shard->len;
    if (len > 0) {
        int32_t last = heap[len];
        Py_ssize_t pos = 0;
        Py_ssize_t child = 1;
        while (child < len) {
            if (child + 1 < len && slot_less(self, heap[child + 1],
                                             heap[child]))
                child += 1;
            if (!slot_less(self, heap[child], last))
                break;
            heap[pos] = heap[child];
            pos = child;
            child = 2 * pos + 1;
        }
        heap[pos] = last;
    }
    return top;
}

/* -- slot allocation ----------------------------------------------------- */

/* Grow the slot columns to hold at least `want` slots. */
static int
pool_reserve(PoolObject *self, Py_ssize_t want)
{
    if (want <= self->cap)
        return 0;
    if (want > SLOT_LIMIT) {
        PyErr_SetString(PyExc_OverflowError,
                        "packed pool exhausted the 24-bit slot space");
        return -1;
    }
    /* a power of two from 64 up, so at most SLOT_LIMIT */
    Py_ssize_t new_cap = self->cap ? self->cap : 64;
    while (new_cap < want)
        new_cap *= 2;
    int64_t *deliver = PyMem_Realloc(self->col_deliver,
                                     new_cap * sizeof(int64_t));
    if (deliver == NULL) goto nomem;
    self->col_deliver = deliver;
    int64_t *seq = PyMem_Realloc(self->col_seq, new_cap * sizeof(int64_t));
    if (seq == NULL) goto nomem;
    self->col_seq = seq;
    int64_t *send_time = PyMem_Realloc(self->col_send_time,
                                       new_cap * sizeof(int64_t));
    if (send_time == NULL) goto nomem;
    self->col_send_time = send_time;
    int32_t *sender = PyMem_Realloc(self->col_sender,
                                    new_cap * sizeof(int32_t));
    if (sender == NULL) goto nomem;
    self->col_sender = sender;
    PyObject **payload = PyMem_Realloc(self->col_payload,
                                       new_cap * sizeof(PyObject *));
    if (payload == NULL) goto nomem;
    memset(payload + self->cap, 0,
           (new_cap - self->cap) * sizeof(PyObject *));
    self->col_payload = payload;
    int32_t *free_stack = PyMem_Realloc(self->free_stack,
                                        new_cap * sizeof(int32_t));
    if (free_stack == NULL) goto nomem;
    self->free_stack = free_stack;
    self->cap = new_cap;
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* Room in the slot columns for `count` more messages. */
static int
pool_room(PoolObject *self, Py_ssize_t count)
{
    return pool_reserve(self, self->used + count - self->free_top);
}

/* A slot for a new message, out of the room pool_room reserved. */
static int32_t
pool_alloc_slot(PoolObject *self)
{
    if (self->free_top > 0)
        return self->free_stack[--self->free_top];
    return (int32_t)self->used++;
}

static inline void
pool_fill_slot(PoolObject *self, int32_t slot, int64_t deliver_at,
               int64_t seq, int32_t sender, int64_t send_time,
               PyObject *payload)
{
    self->col_deliver[slot] = deliver_at;
    self->col_seq[slot] = seq;
    self->col_sender[slot] = sender;
    self->col_send_time[slot] = send_time;
    Py_INCREF(payload);
    self->col_payload[slot] = payload;
}

/* -- type machinery ------------------------------------------------------ */

static PyObject *
Pool_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n;
    static char *kwlist[] = {"n", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "n", kwlist, &n))
        return NULL;
    if (n < 1) {
        PyErr_SetString(PyExc_ValueError, "pool needs at least one receiver");
        return NULL;
    }
    PoolObject *self = (PoolObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->n = n;
    self->shards = PyMem_Calloc(n, sizeof(Shard));
    if (self->shards == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

static int
Pool_traverse(PoolObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->used; i++)
        Py_VISIT(self->col_payload[i]);
    return 0;
}

static int
Pool_clear(PoolObject *self)
{
    for (Py_ssize_t i = 0; i < self->used; i++)
        Py_CLEAR(self->col_payload[i]);
    return 0;
}

static void
Pool_dealloc(PoolObject *self)
{
    PyObject_GC_UnTrack(self);
    Pool_clear(self);
    PyMem_Free(self->col_deliver);
    PyMem_Free(self->col_seq);
    PyMem_Free(self->col_send_time);
    PyMem_Free(self->col_sender);
    PyMem_Free(self->col_payload);
    PyMem_Free(self->free_stack);
    if (self->shards != NULL) {
        for (Py_ssize_t i = 0; i < self->n; i++)
            PyMem_Free(self->shards[i].items);
        PyMem_Free(self->shards);
    }
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* -- methods ------------------------------------------------------------- */

/* Build one (deliver_at, seq, sender, send_time, payload) message tuple.
 * Steals the payload reference (consumed even on failure). */
static PyObject *
build_msg_tuple(int64_t deliver_at, int64_t seq, long sender,
                int64_t send_time, PyObject *payload)
{
    PyObject *item = PyTuple_New(5);
    if (item == NULL) {
        Py_DECREF(payload);
        return NULL;
    }
    PyObject *v;
    v = PyLong_FromLongLong(deliver_at);
    if (v == NULL) goto fail;
    PyTuple_SET_ITEM(item, 0, v);
    v = PyLong_FromLongLong(seq);
    if (v == NULL) goto fail;
    PyTuple_SET_ITEM(item, 1, v);
    v = PyLong_FromLong(sender);
    if (v == NULL) goto fail;
    PyTuple_SET_ITEM(item, 2, v);
    v = PyLong_FromLongLong(send_time);
    if (v == NULL) goto fail;
    PyTuple_SET_ITEM(item, 3, v);
    PyTuple_SET_ITEM(item, 4, payload);
    return item;
fail:
    Py_DECREF(item);
    Py_DECREF(payload);
    return NULL;
}

static PyObject *
Pool_pop_due_batch(PoolObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "pop_due_batch(receiver, t, limit)");
        return NULL;
    }
    Py_ssize_t receiver = PyLong_AsSsize_t(args[0]);
    int64_t t = PyLong_AsLongLong(args[1]);
    Py_ssize_t limit = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return NULL;
    if (receiver < 0 || receiver >= self->n) {
        PyErr_Format(PyExc_IndexError, "receiver %zd out of range", receiver);
        return NULL;
    }
    /* The due slots go onto the free stack's unused top (it has room for
     * every live slot) and are freed only once the result is built: a
     * failure pushes them back into the shard's room, so a refused pop
     * leaves the pool as it was. */
    Shard *shard = &self->shards[receiver];
    int32_t *due = self->free_stack + self->free_top;
    Py_ssize_t count = 0;
    while (shard->len > 0 && count < limit
           && self->col_deliver[shard->items[0]] <= t)
        due[count++] = shard_pop(self, shard);
    int64_t new_head =
        shard->len > 0 ? self->col_deliver[shard->items[0]] : -1;
    PyObject *items = PyList_New(count), *result = NULL;
    for (Py_ssize_t i = 0; items != NULL && i < count; i++) {
        int32_t slot = due[i];
        PyObject *item = build_msg_tuple(
            self->col_deliver[slot], self->col_seq[slot],
            (long)self->col_sender[slot], self->col_send_time[slot],
            Py_NewRef(self->col_payload[slot]));
        if (item == NULL)
            Py_CLEAR(items);
        else
            PyList_SET_ITEM(items, i, item);
    }
    if (items != NULL)
        result = Py_BuildValue("NL", items, (long long)new_head);
    for (Py_ssize_t i = 0; i < count; i++) {
        if (result == NULL)
            shard_push(self, shard, due[i]);
        else
            Py_CLEAR(self->col_payload[due[i]]);
    }
    if (result != NULL)
        self->free_top += count;
    return result;
}

static PyObject *
Pool_slots(PoolObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->used);
}

static PyObject *
Pool_free(PoolObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromSsize_t(self->free_top);
}

/* -- pickling ------------------------------------------------------------
 * State is the pool as plain Python values: the five slot columns over
 * [0, used) (a free slot's payload reads None), the free stack bottom to
 * top, and each shard's heap array of slot indices.  Restoring reproduces
 * slot numbering, recycling order and heap layout exactly, so a resumed
 * run allocates and pops as the uninterrupted one does. */

/* A column as a list of ints; `wide` selects int64 over int32 elements. */
static PyObject *
int_list(const void *values, Py_ssize_t count, int wide)
{
    PyObject *list = PyList_New(count);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *v = wide
            ? PyLong_FromLongLong(((const int64_t *)values)[i])
            : PyLong_FromLong(((const int32_t *)values)[i]);
        if (v == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, v);
    }
    return list;
}

static PyObject *
Pool_getstate(PoolObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *payloads = PyList_New(self->used);
    PyObject *shards = PyList_New(self->n);
    if (payloads == NULL || shards == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < self->used; i++) {
        PyObject *payload = self->col_payload[i];
        if (payload == NULL)
            payload = Py_None;
        Py_INCREF(payload);
        PyList_SET_ITEM(payloads, i, payload);
    }
    for (Py_ssize_t r = 0; r < self->n; r++) {
        PyObject *heap = int_list(self->shards[r].items,
                                  self->shards[r].len, 0);
        if (heap == NULL)
            goto fail;
        PyList_SET_ITEM(shards, r, heap);
    }
    return Py_BuildValue(
        "NNNNNNN", int_list(self->col_deliver, self->used, 1),
        int_list(self->col_seq, self->used, 1),
        int_list(self->col_send_time, self->used, 1),
        int_list(self->col_sender, self->used, 0), payloads,
        int_list(self->free_stack, self->free_top, 0), shards);
fail:
    Py_XDECREF(payloads);
    Py_XDECREF(shards);
    return NULL;
}

static PyObject *
Pool_reduce(PoolObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *state = Pool_getstate(self, NULL);
    if (state == NULL)
        return NULL;
    return Py_BuildValue("O(n)N", (PyObject *)Py_TYPE(self), self->n, state);
}

/* A slot index out of a state list, claimed in `seen`: -1 with ValueError
 * when it is out of range or was already claimed. */
static Py_ssize_t
claim_slot(PyObject *item, Py_ssize_t used, char *seen)
{
    Py_ssize_t slot = PyLong_AsSsize_t(item);
    if (slot == -1 && PyErr_Occurred())
        return -1;
    if (slot < 0 || slot >= used || seen[slot]) {
        PyErr_SetString(PyExc_ValueError, "malformed pool state");
        return -1;
    }
    seen[slot] = 1;
    return slot;
}

/* Restores into an empty pool only (what unpickling builds).  Every slot
 * must be either free or in exactly one shard; that is what keeps a
 * malformed state from ever handing a NULL payload to a handler. */
static PyObject *
Pool_setstate(PoolObject *self, PyObject *state)
{
    PyObject *deliver, *seq, *send_time, *sender, *payloads, *free_list,
        *shards;
    if (!PyArg_ParseTuple(state, "O!O!O!O!O!O!O!", &PyList_Type, &deliver,
                          &PyList_Type, &seq, &PyList_Type, &send_time,
                          &PyList_Type, &sender, &PyList_Type, &payloads,
                          &PyList_Type, &free_list, &PyList_Type, &shards))
        return NULL;
    Py_ssize_t used = PyList_GET_SIZE(payloads);
    if (self->used != 0) {
        PyErr_SetString(PyExc_ValueError,
                        "pool state can only be restored into an empty pool");
        return NULL;
    }
    if (PyList_GET_SIZE(deliver) != used || PyList_GET_SIZE(seq) != used
        || PyList_GET_SIZE(send_time) != used
        || PyList_GET_SIZE(sender) != used || used > SLOT_LIMIT
        || PyList_GET_SIZE(shards) != self->n) {
        PyErr_SetString(PyExc_ValueError, "malformed pool state");
        return NULL;
    }
    char *seen = PyMem_Calloc(used ? used : 1, 1);
    if (seen == NULL)
        return PyErr_NoMemory();
    if (pool_reserve(self, used) < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < used; i++) {
        self->col_deliver[i] = PyLong_AsLongLong(PyList_GET_ITEM(deliver, i));
        self->col_seq[i] = PyLong_AsLongLong(PyList_GET_ITEM(seq, i));
        self->col_send_time[i] =
            PyLong_AsLongLong(PyList_GET_ITEM(send_time, i));
        self->col_sender[i] =
            (int32_t)PyLong_AsLong(PyList_GET_ITEM(sender, i));
        if (PyErr_Occurred())
            goto fail;
    }
    Py_ssize_t placed = 0;
    self->free_top = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(free_list); i++) {
        Py_ssize_t slot = claim_slot(PyList_GET_ITEM(free_list, i), used,
                                     seen);
        if (slot < 0)
            goto fail;
        self->free_stack[self->free_top++] = (int32_t)slot;
        placed++;
    }
    for (Py_ssize_t r = 0; r < self->n; r++) {
        PyObject *heap = PyList_GET_ITEM(shards, r);
        Shard *shard = &self->shards[r];
        shard->len = 0;
        if (!PyList_Check(heap)) {
            PyErr_SetString(PyExc_ValueError, "malformed pool state");
            goto fail;
        }
        Py_ssize_t len = PyList_GET_SIZE(heap);
        if (len > shard->cap) {
            int32_t *items = PyMem_Realloc(shard->items,
                                           len * sizeof(int32_t));
            if (items == NULL) {
                PyErr_NoMemory();
                goto fail;
            }
            shard->items = items;
            shard->cap = len;
        }
        for (Py_ssize_t i = 0; i < len; i++) {
            Py_ssize_t slot = claim_slot(PyList_GET_ITEM(heap, i), used,
                                         seen);
            if (slot < 0)
                goto fail;
            shard->items[shard->len++] = (int32_t)slot;
            placed++;
        }
    }
    if (placed != used) {
        PyErr_SetString(PyExc_ValueError, "malformed pool state");
        goto fail;
    }
    /* live slots take their payload; free ones stay NULL */
    for (Py_ssize_t r = 0; r < self->n; r++) {
        Shard *shard = &self->shards[r];
        for (Py_ssize_t i = 0; i < shard->len; i++) {
            int32_t slot = shard->items[i];
            PyObject *payload = PyList_GET_ITEM(payloads, slot);
            Py_INCREF(payload);
            self->col_payload[slot] = payload;
        }
    }
    self->used = used;
    PyMem_Free(seen);
    Py_RETURN_NONE;
fail:
    /* leave an empty pool behind */
    for (Py_ssize_t r = 0; r < self->n; r++)
        self->shards[r].len = 0;
    self->used = 0;
    self->free_top = 0;
    PyMem_Free(seen);
    return NULL;
}

static PyMethodDef Pool_methods[] = {
    {"pop_due_batch", (PyCFunction)(void (*)(void))Pool_pop_due_batch,
     METH_FASTCALL,
     "pop_due_batch(receiver, t, limit) -> ([(deliver_at, seq, sender, "
     "send_time, payload), ...], new_head)"},
    {"slots", (PyCFunction)Pool_slots, METH_NOARGS,
     "total slots ever allocated"},
    {"free", (PyCFunction)Pool_free, METH_NOARGS,
     "slots currently on the free list"},
    {"__getstate__", (PyCFunction)Pool_getstate, METH_NOARGS,
     "(deliver_at, seq, send_time, sender, payload columns, free stack, "
     "shard heaps) as plain lists"},
    {"__setstate__", (PyCFunction)Pool_setstate, METH_O,
     "restore a __getstate__ tuple into an empty pool"},
    {"__reduce__", (PyCFunction)Pool_reduce, METH_NOARGS,
     "(Pool, (n,), __getstate__())"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PoolType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.Pool",
    .tp_doc = "Struct-of-arrays envelope pool with per-receiver shard heaps",
    .tp_basicsize = sizeof(PoolObject),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = Pool_new,
    .tp_dealloc = (destructor)Pool_dealloc,
    .tp_traverse = (traverseproc)Pool_traverse,
    .tp_clear = (inquiry)Pool_clear,
    .tp_methods = Pool_methods,
};

/* ======================================================================== */
/* run_loop: the fused tick loop (kernel="compiled-loop")                   */
/* ======================================================================== */

/* Interned attribute names, filled in at module init.  `s__time_col` /
 * `s__pid_col` are the StepStore column names "_time" / "_pid" (distinct
 * from the sim attributes "time" / "pid"). */
static PyObject *s_network, *s_processes, *s__ctx, *s_detector,
    *s_query, *s_failure_pattern, *s_crash_times, *s__skip_span_rr,
    *s__local_event, *s__next_timeout, *s_timeout_intervals, *s__inputs,
    *s__started, *s_message_batch, *s__step_observers, *s_run,
    *s__clock, *s_time, *s_pid, *s_fd_value, *s__fd_settle,
    *s__outbox, *s__outputs, *s__log, *s_on_start, *s_on_input,
    *s_on_message, *s_on_timeout, *s_on_step_raw, *s__next_at, *s__pending,
    *s_delay_model, *s_delay, *s_delay_profile,
    *s__counts, *s__pool, *s_end_time, *s_input_history, *s_output_history,
    *s__index, *s__time_col, *s__pid_col, *s__fd, *s__msg_sender,
    *s__msg_payload, *s__msg_send_time, *s__timeout, *s__sent,
    *s__received, *s__intern_fd, *s__log_observers, *s_on_log,
    *s_scheduling, *s_seed, *s_metrics,
    *s_idle_ticks_skipped, *s__idle_step_observers, *s__materialize_idle,
    *s_frombytes, *s_steps, *s_steps_by_pid, *s_messages_sent,
    *s_messages_received, *s_timeouts_fired, *s_inputs, *s_outputs,
    *s__dispatch_plan, *s__base, *s_omega;

/* heapq.heappop, resolved at module init (the input queues are heaps) */
static PyObject *g_heappop;

/* -- block permutations (the definition is above loop_perm) -------------- */

#define BLOCK_PERMUTATION_TAG UINT64_C(0x626C6B2D7065726D) /* b"blk-perm" */

/* splitmix64's output function, types._mix64 */
static inline uint64_t
mix64(uint64_t z)
{
    z += UINT64_C(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* The high word of the 128-bit product a * b, in 32-bit halves (no
 * __int128).  `cross` cannot wrap: it is at most 2**64 - 1. */
static inline uint64_t
mulhi64(uint64_t a, uint64_t b)
{
    uint64_t a_lo = a & UINT32_MAX, a_hi = a >> 32;
    uint64_t b_lo = b & UINT32_MAX, b_hi = b >> 32;
    uint64_t lo_lo = a_lo * b_lo, hi_lo = a_hi * b_lo;
    uint64_t lo_hi = a_lo * b_hi, hi_hi = a_hi * b_hi;
    uint64_t cross = (lo_lo >> 32) + (hi_lo & UINT32_MAX) + lo_hi;
    return hi_hi + (hi_lo >> 32) + (cross >> 32);
}

/* *out := mix64(mix64(TAG) ^ (seed mod 2**64)), the per-seed half of a
 * block's key.  seed must be an int, as `seed & _MASK64` requires (the
 * mask of an int cannot fail). */
static int
perm_seed_mix(PyObject *seed, uint64_t *out)
{
    if (!PyLong_Check(seed)) {
        PyErr_Format(PyExc_TypeError,
                     "block permutations need an int seed, got %R", seed);
        return -1;
    }
    *out = mix64(mix64(BLOCK_PERMUTATION_TAG)
                 ^ PyLong_AsUnsignedLongLongMask(seed));
    return 0;
}

/* perm[0 .. n) := the permutation of the block with key
 * mix64(seed_mix ^ block): Fisher-Yates, j = mulhi(mix64(key ^ i), i + 1). */
static void
permutation_fill(long *perm, long n, uint64_t seed_mix, uint64_t block)
{
    uint64_t key = mix64(seed_mix ^ block);
    for (long i = 0; i < n; i++)
        perm[i] = i;
    for (long i = n - 1; i >= 1; i--) {
        long j = (long)mulhi64(mix64(key ^ (uint64_t)i), (uint64_t)i + 1);
        long swap = perm[i];
        perm[i] = perm[j];
        perm[j] = swap;
    }
}

static int
get_i64_attr(PyObject *obj, PyObject *name, int64_t *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    int64_t r = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (r == -1 && PyErr_Occurred())
        return -1;
    *out = r;
    return 0;
}

static int
set_i64_attr(PyObject *obj, PyObject *name, int64_t v)
{
    PyObject *boxed = PyLong_FromLongLong(v);
    if (boxed == NULL)
        return -1;
    int r = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return r;
}

static int
add_i64_attr(PyObject *obj, PyObject *name, int64_t delta)
{
    int64_t v;
    if (get_i64_attr(obj, name, &v) < 0)
        return -1;
    return set_i64_attr(obj, name, v + delta);
}

/* list[i] += delta (list of plain ints) */
static int
list_add_i64(PyObject *list, Py_ssize_t i, int64_t delta)
{
    int64_t v = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
    if (v == -1 && PyErr_Occurred())
        return -1;
    PyObject *boxed = PyLong_FromLongLong(v + delta);
    if (boxed == NULL)
        return -1;
    return PyList_SetItem(list, i, boxed);
}

/* Exports attribute `name` of `owner`, which must be a writable array('q')
 * of `len` items, into *view and points *out at its items; a TypeError
 * naming the attribute otherwise.  The caller releases *view. */
static int
i64_view(PyObject *owner, PyObject *name, Py_ssize_t len, Py_buffer *view,
         int64_t **out)
{
    PyObject *obj = PyObject_GetAttr(owner, name);
    if (obj == NULL)
        return -1;
    int rc = PyObject_GetBuffer(obj, view, PyBUF_WRITABLE | PyBUF_FORMAT);
    Py_DECREF(obj);
    if (rc == 0 && strcmp(view->format, "q") == 0
        && view->len == len * (Py_ssize_t)sizeof(int64_t)) {
        *out = (int64_t *)view->buf;
        return 0;
    }
    if (rc == 0)
        PyBuffer_Release(view);
    PyErr_Format(PyExc_TypeError, "%U must be an array('q') of length %zd",
                 name, len);
    return -1;
}

static inline PyObject *
call1(PyObject *fn, PyObject *a)
{
    PyObject *args[1] = {a};
    return PyObject_Vectorcall(fn, args, 1, NULL);
}

static inline PyObject *
call2(PyObject *fn, PyObject *a, PyObject *b)
{
    PyObject *args[2] = {a, b};
    return PyObject_Vectorcall(fn, args, 2, NULL);
}

static inline PyObject *
call3(PyObject *fn, PyObject *a, PyObject *b, PyObject *c)
{
    PyObject *args[3] = {a, b, c};
    return PyObject_Vectorcall(fn, args, 3, NULL);
}

/* ======================================================================== */
/* The send side of a CompiledPackedNetwork                                  */
/* ======================================================================== */

/* 40-bit global send sequence (kernel.py's _SEQ_LIMIT): seq must stay
 * orderable inside PackedNetwork's packed shard keys, and the two pools
 * must exhaust it at the same send. */
#define SEQ_LIMIT (((int64_t)1) << 40)

/* A CompiledPackedNetwork as the C send and pop paths see it: the pool
 * and the exported buffers of the merge layer -- the per-receiver
 * `_next_at` / `_pending` and the network-wide `_counts` -- which every Network keeps as array('q'), so the event
 * engine reads the same cursors on every kernel.  `delay_model` is read
 * through `net` at each use.  References are owned and buffers exported
 * until net_view_free. */
typedef struct {
    PyObject *net, *pool_obj;
    PoolObject *pool;                    /* borrowed view of pool_obj */
    Py_buffer bufs[3];
    int64_t *next_at, *pending, *counts;
} NetView;

static void
net_view_free(NetView *nv)
{
    for (int i = 0; i < 3; i++)
        PyBuffer_Release(&nv->bufs[i]);
    Py_CLEAR(nv->net);
    Py_CLEAR(nv->pool_obj);
}

/* Fills a zeroed NetView; on failure the caller still runs net_view_free. */
static int
net_view_init(NetView *nv, PyObject *net)
{
    Py_INCREF(net);
    nv->net = net;
    if ((nv->pool_obj = PyObject_GetAttr(net, s__pool)) == NULL)
        return -1;
    if (!PyObject_TypeCheck(nv->pool_obj, &PoolType)) {
        PyErr_SetString(PyExc_TypeError,
                        "expected a CompiledPackedNetwork (its _pool must "
                        "be a _ckernel.Pool)");
        return -1;
    }
    nv->pool = (PoolObject *)nv->pool_obj;
    Py_ssize_t n = nv->pool->n;
    if (i64_view(net, s__next_at, n, &nv->bufs[0], &nv->next_at) < 0
        || i64_view(net, s__pending, n, &nv->bufs[1], &nv->pending) < 0
        || i64_view(net, s__counts, N_COUNTS, &nv->bufs[2], &nv->counts) < 0)
        return -1;
    return 0;
}

/* t + delay for one drawn delay, checked as network.deliver_time checks
 * it, with the same exceptions and messages: ValueError on delay < 1,
 * OverflowError on a delivery time at or past NO_MESSAGE. */
static int
deliver_time(PyObject *delay_obj, int64_t t, int64_t *out)
{
    int over;
    int64_t delay = PyLong_AsLongLongAndOverflow(delay_obj, &over);
    if (delay == -1 && !over && PyErr_Occurred())
        return -1;
    if (over < 0 || (!over && delay < 1)) {
        PyErr_Format(PyExc_ValueError,
                     "delay model produced non-positive delay %S", delay_obj);
        return -1;
    }
    if (over > 0 || (t > 0 ? delay >= NO_MESSAGE_I64 - t
                           : t + delay >= NO_MESSAGE_I64)) {
        PyErr_Format(PyExc_OverflowError,
                     "delivery time %lld + %S reaches NO_MESSAGE (2**63 - 1)",
                     (long long)t, delay_obj);
        return -1;
    }
    *out = t + delay;
    return 0;
}

/* Queue one message into the room its caller reserved (pool_room,
 * shard_room), so it cannot fail: the pool push plus the merge-layer
 * update of PackedNetwork.send_packed on the per-receiver state, in its
 * order of effects (pending, then the next-delivery cursor).  The sent
 * count is the caller's: it adds what it queued. */
static void
net_queue(NetView *nv, Py_ssize_t receiver, int64_t deliver_at, int64_t seq,
          long sender, int64_t t, PyObject *payload)
{
    PoolObject *pool = nv->pool;
    int32_t slot = pool_alloc_slot(pool);
    pool_fill_slot(pool, slot, deliver_at, seq, (int32_t)sender, t, payload);
    shard_push(pool, &pool->shards[receiver], slot);
    nv->pending[receiver] += 1;
    if (deliver_at < nv->next_at[receiver])
        nv->next_at[receiver] = deliver_at;
}

/* model.delay(sender, receiver, t) -> deliver_at */
static int
draw_deliver_time(PyObject *model, PyObject *sender_obj, PyObject *recv_obj,
                  PyObject *t_obj, int64_t t, int64_t *deliver_at)
{
    PyObject *cargs[4] = {model, sender_obj, recv_obj, t_obj};
    PyObject *delay_obj = PyObject_VectorcallMethod(
        s_delay, cargs, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    if (delay_obj == NULL)
        return -1;
    int rc = deliver_time(delay_obj, t, deliver_at);
    Py_DECREF(delay_obj);
    return rc;
}

/* One point-to-point send (PackedNetwork.send_packed): draw the delay,
 * check it and the sequence space, queue. */
static int
net_send(NetView *nv, long sender, PyObject *sender_obj, PyObject *recv_obj,
         PyObject *payload, int64_t t, PyObject *t_obj, int64_t *seq_out)
{
    PyObject *model = PyObject_GetAttr(nv->net, s_delay_model);
    if (model == NULL)
        return -1;
    int64_t deliver_at = 0;
    int rc = draw_deliver_time(model, sender_obj, recv_obj, t_obj, t,
                               &deliver_at);
    Py_DECREF(model);
    if (rc < 0)
        return -1;
    Py_ssize_t receiver = PyLong_AsSsize_t(recv_obj);
    if (receiver == -1 && PyErr_Occurred())
        return -1;
    int64_t seq = nv->counts[SENT];
    if (seq >= SEQ_LIMIT) {
        PyErr_SetString(PyExc_OverflowError,
                        "packed pool exhausted the 40-bit send sequence");
        return -1;
    }
    if (receiver < 0 || receiver >= nv->pool->n) {
        PyErr_Format(PyExc_IndexError, "receiver %zd out of range", receiver);
        return -1;
    }
    if (shard_room(&nv->pool->shards[receiver]) < 0
        || pool_room(nv->pool, 1) < 0)
        return -1;
    net_queue(nv, receiver, deliver_at, seq, sender, t, payload);
    nv->counts[SENT] += 1;
    *seq_out = seq;
    return 0;
}

/* One broadcast (PackedNetwork.send_all_packed): the same draws, in the
 * same receiver order, as n point-to-point sends -- one `delay_profile`
 * call when the model has the vectorized hook, else one `delay` call per
 * receiver.  Every delay, the profile's length and the sequence space are
 * checked, and the room every message takes reserved, before anything
 * queues, so a broadcast is all or nothing. */
static int
net_send_all(NetView *nv, long sender, PyObject *sender_obj,
             PyObject *payload, int64_t t, PyObject *t_obj, int include_self,
             long *count_out)
{
    Py_ssize_t n = nv->pool->n;
    Py_ssize_t count = (include_self || sender < 0 || sender >= n) ? n : n - 1;
    int64_t stack_times[16];
    int64_t *times = stack_times;        /* deliver_at per position */
    PyObject *model = NULL, *profile = NULL, *receivers = NULL;
    PyObject *delays = NULL;
    int64_t seq0 = 0;
    int rc = -1;

    if ((model = PyObject_GetAttr(nv->net, s_delay_model)) == NULL)
        return -1;
    profile = PyObject_GetAttr(model, s_delay_profile);
    if (profile == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            goto done;
        PyErr_Clear();
    } else if (profile == Py_None) {
        Py_CLEAR(profile);
    }
    if ((receivers = PyList_New(count)) == NULL)
        goto done;
    for (Py_ssize_t r = 0, position = 0; r < n; r++) {
        if (!include_self && r == sender)
            continue;
        PyObject *recv_obj = PyLong_FromSsize_t(r);
        if (recv_obj == NULL)
            goto done;
        PyList_SET_ITEM(receivers, position++, recv_obj);
    }
    if (profile != NULL) {
        PyObject *drawn = call3(profile, sender_obj, t_obj, receivers);
        if (drawn == NULL)
            goto done;
        delays = PySequence_Fast(
            drawn, "delay profile must return a sequence of delays");
        Py_DECREF(drawn);
        if (delays == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(delays) != count) {
            PyErr_Format(PyExc_ValueError,
                         "delay profile returned %zd delays for %zd "
                         "receivers",
                         PySequence_Fast_GET_SIZE(delays), count);
            goto done;
        }
    } else {
        if ((delays = PyList_New(count)) == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < count; i++) {
            PyObject *cargs[4] = {
                model, sender_obj, PyList_GET_ITEM(receivers, i), t_obj,
            };
            PyObject *delay = PyObject_VectorcallMethod(
                s_delay, cargs, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
            if (delay == NULL)
                goto done;
            PyList_SET_ITEM(delays, i, delay);
        }
    }
    if (count > 16
        && (times = PyMem_Malloc(count * sizeof(int64_t))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        if (deliver_time(PySequence_Fast_GET_ITEM(delays, i), t,
                         &times[i]) < 0)
            goto done;
    }
    seq0 = nv->counts[SENT];
    if (seq0 + count > SEQ_LIMIT) {
        PyErr_SetString(PyExc_OverflowError,
                        "packed pool exhausted the 40-bit send sequence");
        goto done;
    }
    /* receiver i, or i + 1 past an excluded sender; room for every
     * message before the first queues */
    int skip = count < n;
    if (pool_room(nv->pool, count) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < count; i++) {
        if (shard_room(&nv->pool->shards[i + (skip && i >= sender)]) < 0)
            goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++)
        net_queue(nv, i + (skip && i >= sender), times[i], seq0 + i, sender,
                  t, payload);
    nv->counts[SENT] += count;
    *count_out = (long)count;
    rc = 0;
done:
    if (times != stack_times)
        PyMem_Free(times);
    Py_XDECREF(delays);
    Py_XDECREF(receivers);
    Py_XDECREF(profile);
    Py_DECREF(model);
    return rc;
}

/* history.setdefault(pid, []).extend((t, v) for v in values) */
static int
history_extend(PyObject *history, PyObject *pid_obj, PyObject *t_obj,
               PyObject *values)
{
    PyObject *bucket = PyDict_GetItemWithError(history, pid_obj);
    PyObject *owned = NULL;
    if (bucket == NULL) { /* an int key cannot fail the lookup */
        owned = PyList_New(0);
        if (owned == NULL)
            return -1;
        if (PyDict_SetItem(history, pid_obj, owned) < 0) {
            Py_DECREF(owned);
            return -1;
        }
        bucket = owned;
    }
    Py_ssize_t count = PyTuple_GET_SIZE(values);
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *pair = PyTuple_Pack(2, t_obj, PyTuple_GET_ITEM(values, i));
        if (pair == NULL) {
            Py_XDECREF(owned);
            return -1;
        }
        int r = PyList_Append(bucket, pair);
        Py_DECREF(pair);
        if (r < 0) {
            Py_XDECREF(owned);
            return -1;
        }
    }
    Py_XDECREF(owned);
    return 0;
}

/* Fold `received` pops from `pid`'s shard into the merge layer: the
 * delivered / pending counts and the receiver's next-delivery cursor (the
 * tail of PackedNetwork.pop_deliverable_batch_raw). */
static void
fold_pops(NetView *nv, long pid, long received)
{
    Shard *shard = &nv->pool->shards[pid];
    nv->counts[DELIVERED] += received;
    nv->pending[pid] -= received;
    nv->next_at[pid] = shard->len == 0
        ? NO_MESSAGE_I64 : nv->pool->col_deliver[shard->items[0]];
}

/* Peek the deliver-at of the head of a per-pid input heap.  Returns 1 and
 * sets *out when the queue is nonempty, 0 when empty, -1 on error.  Items
 * are the (at, seq, value) tuples pushed by Simulation.schedule_input. */
static int
peek_input_at(PyObject *in_q, int64_t *out)
{
    if (PyList_GET_SIZE(in_q) == 0)
        return 0;
    PyObject *head_item = PyList_GET_ITEM(in_q, 0);
    if (!PyTuple_Check(head_item) || PyTuple_GET_SIZE(head_item) < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "input queue items must be (at, seq, value) tuples");
        return -1;
    }
    int64_t at = PyLong_AsLongLong(PyTuple_GET_ITEM(head_item, 0));
    if (at == -1 && PyErr_Occurred())
        return -1;
    *out = at;
    return 1;
}

/* StepStore rows staged in C (record="full", see stage_flush): one
 * buffer per column, in the element types of the store's arrays ('q' long
 * long, 'i' int), _timeout as bytes and the two object columns as owned
 * references.  A compile-time capacity: 512, 1024 and 4096 rows ran
 * dense_gossip at the same speed, within noise. */
#define STAGE_ROWS 1024

typedef struct {
    long long index[STAGE_ROWS], time[STAGE_ROWS], send_time[STAGE_ROWS];
    int pid[STAGE_ROWS], sender[STAGE_ROWS];
    int sent[STAGE_ROWS], received[STAGE_ROWS];
    char timeout[STAGE_ROWS];
    PyObject *fd[STAGE_ROWS], *payload[STAGE_ROWS];
    Py_ssize_t len;
} Stage;

/* Simulation._clock slots: the clock (sim.time), sim.last_live_tick and
 * sim._step_index. */
enum { CLOCK_TIME, CLOCK_LAST_LIVE, CLOCK_STEP_INDEX, N_CLOCK };

/* Everything the loop reads, extracted once per run_loop call.  Python
 * objects are owned references unless marked borrowed; local_event,
 * next_timeout and clock point into the sim's exported array('q') buffers,
 * outbox / outputs / log_buf are the step context's effect lists (one each
 * for its lifetime, emptied in place after every step), and the PyMem
 * int64 arrays copy state that is immutable for the run's duration (crash
 * times, intervals). */
typedef struct {
    PyObject *sim;                       /* borrowed */
    NetView nv;                          /* sim.network's merge layer + pool */
    PyObject *ctx, *processes, *started, *inputs_by_pid;
    PyObject *outbox, *outputs, *log_buf; /* ctx._outbox, _outputs, _log */
    Py_ssize_t off_pid, off_time, off_fd; /* ctx's pid / time / fd_value
                                          * slots (ctx_slot) */
    int64_t settle_at;                   /* sim._fd_settle: from this tick
                                          * on every sample is `settled` */
    PyObject *settled;
    PyObject *detector_query;            /* NULL when settle_at <= 0 */
    PyObject *skip_span;                 /* sim._skip_span_rr, or NULL when
                                          * idle spans are counted in C */
    PyObject *sim_metrics;               /* sim.metrics (loop_flush_idle) */
    Py_buffer cursor_bufs[3];            /* sim._local_event, _next_timeout,
                                          * _clock */
    int64_t *local_event, *next_timeout, *clock;
    PyObject *step_obs, *run;
    PyObject *crash_times, *intervals;   /* read into crash_at / interval */
    PyObject *store;                     /* borrowed; NULL without store */
    PyObject *st_col[10];                /* the store's columns */
    PyObject *st_frombytes[10];          /* bound .frombytes of the array
                                          * columns */
    Stage *stage;                        /* rows not yet in the store */
    int64_t run_end_time;                /* run.end_time as last written */
    PyObject *intern_fd;
    PyObject *sparse_inputs, *sparse_outputs;
    PyObject *input_history, *output_history;
    PyObject **pid_objs;                 /* n owned ints 0..n-1 */
    PyObject **plans;                    /* n owned dispatch plans (see
                                          * plan_init) or NULL */
    PyObject **on_message_m, **on_timeout_m; /* n owned bound methods, for
                                          * a process without a plan */
    PyObject **raw_methods;              /* owned bound on_step_raw */
    Py_ssize_t raw_count;
    /* record="metrics" folded in C (see loop_fold_flush): the RunMetrics
     * of a leading MetricsRecorder and the counts of the steps executed
     * since the last flush. */
    PyObject *metrics;                   /* owned; NULL without the fold */
    int64_t fold_steps, fold_sent, fold_received, fold_timeouts;
    int64_t fold_inputs, fold_outputs;
    int64_t fold_end;                    /* latest executed tick, -1 none */
    int64_t *fold_by_pid;                /* n per-process step counts */
    PyObject **log_methods;              /* owned bound on_log */
    Py_ssize_t log_count;
    int64_t *crash_at;                   /* INT64_MAX = never crashes */
    int64_t *interval;
    PyObject *empty_tuple;
    long n;
    int64_t message_batch;
    int has_crashes, has_store;
    int materialize_idle;                /* sim._materialize_idle */
    int fill_idle;                       /* see loop_fill_idle */
    int64_t first_crash;                 /* INT64_MAX = no crash */
    int64_t all_dead_from;               /* the last crash when every
                                          * process crashes, else INT64_MAX */
    /* scheduling="random" only (see the block comment above loop_perm) */
    int random;
    uint64_t seed_mix;                   /* perm_seed_mix(sim.seed) */
    long *perm;                          /* the schedule of block perm_block */
    int64_t perm_block;                  /* -1 = none yet */
    /* both schedules (see loop_flush_idle) */
    int64_t idle_acc;                    /* live idle ticks not yet added */
} Loop;

static void
loop_free(Loop *L)
{
    net_view_free(&L->nv);
    Py_XDECREF(L->ctx);
    Py_XDECREF(L->outbox);
    Py_XDECREF(L->outputs);
    Py_XDECREF(L->log_buf);
    Py_XDECREF(L->processes);
    Py_XDECREF(L->started);
    Py_XDECREF(L->inputs_by_pid);
    Py_XDECREF(L->settled);
    Py_XDECREF(L->detector_query);
    Py_XDECREF(L->skip_span);
    Py_XDECREF(L->sim_metrics);
    for (int i = 0; i < 3; i++)
        PyBuffer_Release(&L->cursor_bufs[i]);
    Py_XDECREF(L->step_obs);
    Py_XDECREF(L->metrics);
    Py_XDECREF(L->run);
    Py_XDECREF(L->crash_times);
    Py_XDECREF(L->intervals);
    for (int i = 0; i < 10; i++) {
        Py_XDECREF(L->st_col[i]);
        Py_XDECREF(L->st_frombytes[i]);
    }
    PyMem_Free(L->stage);                /* empty: every exit flushes it */
    Py_XDECREF(L->intern_fd);
    Py_XDECREF(L->sparse_inputs);
    Py_XDECREF(L->sparse_outputs);
    Py_XDECREF(L->input_history);
    Py_XDECREF(L->output_history);
    Py_XDECREF(L->empty_tuple);
    if (L->pid_objs != NULL) {
        for (long p = 0; p < L->n; p++)
            Py_XDECREF(L->pid_objs[p]);
        PyMem_Free(L->pid_objs);
    }
    if (L->plans != NULL) {
        for (long p = 0; p < L->n; p++)
            Py_XDECREF(L->plans[p]);
        PyMem_Free(L->plans);
    }
    if (L->on_message_m != NULL) {
        for (long p = 0; p < L->n; p++)
            Py_XDECREF(L->on_message_m[p]);
        PyMem_Free(L->on_message_m);
    }
    if (L->on_timeout_m != NULL) {
        for (long p = 0; p < L->n; p++)
            Py_XDECREF(L->on_timeout_m[p]);
        PyMem_Free(L->on_timeout_m);
    }
    if (L->raw_methods != NULL) {
        for (Py_ssize_t i = 0; i < L->raw_count; i++)
            Py_XDECREF(L->raw_methods[i]);
        PyMem_Free(L->raw_methods);
    }
    if (L->log_methods != NULL) {
        for (Py_ssize_t i = 0; i < L->log_count; i++)
            Py_XDECREF(L->log_methods[i]);
        PyMem_Free(L->log_methods);
    }
    PyMem_Free(L->crash_at);
    PyMem_Free(L->interval);
    PyMem_Free(L->perm);
    PyMem_Free(L->fold_by_pid);
}

#define GETA(dst, obj, name)                                                \
    do {                                                                    \
        (dst) = PyObject_GetAttr((obj), (name));                            \
        if ((dst) == NULL)                                                  \
            return -1;                                                      \
    } while (0)

/* -- the StepStore column writer (record="full") ------------------------- */

/* The StepStore columns (st_col order) that are arrays, which the writer
 * extends by frombytes: 'q' (long long) _index, _time, _msg_send_time and
 * 'i' (int) _pid, _msg_sender, _sent, _received.  _fd and _msg_payload
 * are lists, _timeout a bytearray. */
static const int st_is_array[10] = {1, 1, 1, 0, 1, 0, 1, 0, 1, 1};

/* Binds the array columns' .frombytes and allocates the stage. */
static int
stage_init(Loop *L)
{
    /* _timeout grows through the bytearray macros, which trust the type */
    if (!PyByteArray_CheckExact(L->st_col[7])) {
        PyErr_SetString(PyExc_TypeError,
                        "run_loop: StepStore._timeout must be a bytearray");
        return -1;
    }
    for (int i = 0; i < 10; i++) {
        if (st_is_array[i])
            GETA(L->st_frombytes[i], L->st_col[i], s_frombytes);
    }
    L->stage = PyMem_Malloc(sizeof(Stage));
    if (L->stage == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    L->stage->len = 0;
    return 0;
}

/* column i .frombytes(memoryview of the first `size` bytes at buf) */
static int
array_extend(Loop *L, int i, const void *buf, Py_ssize_t size)
{
    PyObject *view = PyMemoryView_FromMemory((char *)buf, size, PyBUF_READ);
    if (view == NULL)
        return -1;
    PyObject *r = call1(L->st_frombytes[i], view);
    Py_DECREF(view);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* list.extend(values) */
static inline int
list_extend(PyObject *list, PyObject *values)
{
    return PyList_SetSlice(list, PY_SSIZE_T_MAX, PY_SSIZE_T_MAX, values);
}

/* list.clear(), which cannot fail on a list: emptying one allocates
 * nothing. */
static inline void
list_clear(PyObject *list)
{
    if (PyList_GET_SIZE(list) > 0)
        (void)PyList_SetSlice(list, 0, PY_SSIZE_T_MAX, NULL);
}

/* Deletes the positions >= rows from a sparse column (_inputs or
 * _outputs), errors cleared: what a failed flush's rows left there. */
static void
sparse_trim(PyObject *sparse, Py_ssize_t rows)
{
    PyObject *keys = PyDict_Keys(sparse);
    if (keys != NULL) {
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(keys); i++) {
            PyObject *key = PyList_GET_ITEM(keys, i);
            if (PyLong_AsSsize_t(key) >= rows)
                PyDict_DelItem(sparse, key);
        }
        Py_DECREF(keys);
    }
    PyErr_Clear();
}

/* The column writer: appends the staged rows to the store, in
 * StepStore.extend_idle_span's column order, raises run.end_time to the
 * last row's tick, and empties the stage.  The arrays extend by frombytes
 * over the stage's own buffers, the two object columns by one slice
 * assignment each, _timeout by a resize.  Called before a row goes into a
 * full stage, before each _skip_span_rr call (which appends in Python),
 * and when the loop returns or fails -- so between run calls the store
 * holds exactly the completed steps.  A flush that fails part way (a
 * column exporting its buffer refuses to grow; out of memory) cuts every
 * column back to its old length, the store's row count, and drops the
 * staged rows, their inputs and outputs too: the store stays
 * rectangular, and the run fails for good either way. */
static int
stage_flush(Loop *L)
{
    Stage *S = L->stage;
    Py_ssize_t k = S == NULL ? 0 : S->len;
    if (k == 0)
        return 0;
    S->len = 0;
    Py_ssize_t rows = PyByteArray_GET_SIZE(L->st_col[7]);
    PyObject *fd = PyList_New(k);
    PyObject *payload = PyList_New(k);
    for (Py_ssize_t i = 0; i < k; i++) {
        if (fd != NULL)
            PyList_SET_ITEM(fd, i, S->fd[i]);
        else
            Py_DECREF(S->fd[i]);
        if (payload != NULL)
            PyList_SET_ITEM(payload, i, S->payload[i]);
        else
            Py_DECREF(S->payload[i]);
    }
    int rc = -1;
    Py_ssize_t wide = k * sizeof(long long), narrow = k * sizeof(int);
    if (fd == NULL || payload == NULL
        || array_extend(L, 0, S->index, wide) < 0
        || array_extend(L, 1, S->time, wide) < 0
        || array_extend(L, 2, S->pid, narrow) < 0
        || list_extend(L->st_col[3], fd) < 0
        || array_extend(L, 4, S->sender, narrow) < 0
        || list_extend(L->st_col[5], payload) < 0
        || array_extend(L, 6, S->send_time, wide) < 0)
        goto done;
    PyObject *timeout = L->st_col[7];
    if (PyByteArray_Resize(timeout, rows + k) < 0)
        goto done;
    memcpy(PyByteArray_AS_STRING(timeout) + rows, S->timeout, k);
    if (array_extend(L, 8, S->sent, narrow) < 0
        || array_extend(L, 9, S->received, narrow) < 0)
        goto done;
    int64_t last = S->time[k - 1];
    if (last > L->run_end_time) {
        if (set_i64_attr(L->run, s_end_time, last) < 0)
            goto done;
        L->run_end_time = last;
    }
    rc = 0;
done:
    Py_XDECREF(fd);
    Py_XDECREF(payload);
    if (rc < 0) {
        PyObject *type, *value, *traceback;
        PyErr_Fetch(&type, &value, &traceback);
        for (int i = 0; i < 10; i++) {
            if (PySequence_DelSlice(L->st_col[i], rows, PY_SSIZE_T_MAX) < 0)
                PyErr_Clear();
        }
        sparse_trim(L->sparse_inputs, rows);
        sparse_trim(L->sparse_outputs, rows);
        PyErr_Restore(type, value, traceback);
    }
    return rc;
}

/* Stages one row (fd and payload borrowed), flushing a full stage first:
 * executed steps and idle spans alike reach the store through here. */
static inline int
stage_row(Loop *L, int64_t index, int64_t t, long pid, PyObject *fd,
          long sender, PyObject *payload, int64_t send_time, int timeout,
          long sent, long received)
{
    Stage *S = L->stage;
    if (S->len == STAGE_ROWS && stage_flush(L) < 0)
        return -1;
    Py_ssize_t i = S->len++;
    S->index[i] = index;
    S->time[i] = t;
    S->pid[i] = (int)pid;
    S->fd[i] = Py_NewRef(fd);
    S->sender[i] = (int)sender;
    S->payload[i] = Py_NewRef(payload);
    S->send_time[i] = send_time;
    S->timeout[i] = (char)timeout;
    S->sent[i] = (int)sent;
    S->received[i] = (int)received;
    return 0;
}

/* -- idle spans at record="full" ----------------------------------------- */

/* Sets L->fill_idle where _skip_span_rr would hand a crash-free span to
 * FullRecorder.on_idle_span alone: idle steps are materialized and the
 * store's recorder is the one idle-step observer.  Otherwise the span
 * stays a Python call. */
static int
fill_idle_init(Loop *L)
{
    PyObject *idle_obs = PyObject_GetAttr(L->sim, s__idle_step_observers);
    if (idle_obs == NULL)
        return -1;
    int sole = PyList_Check(idle_obs) && PyList_GET_SIZE(idle_obs) == 1
        && PyList_GET_SIZE(L->step_obs) == 1
        && PyList_GET_ITEM(idle_obs, 0) == PyList_GET_ITEM(L->step_obs, 0);
    Py_DECREF(idle_obs);
    L->fill_idle = sole && L->materialize_idle;
    return 0;
}

/* [intern_fd(detector.query(t % n, t)) for t in range(start, start + k)],
 * queried in tick order (None is not interned, as _intern_fd leaves it). */
static PyObject *
idle_fd_values(Loop *L, int64_t start, Py_ssize_t k)
{
    PyObject *values = PyList_New(k);
    if (values == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < k; i++) {
        int64_t t = start + i;
        PyObject *t_obj = PyLong_FromLongLong(t);
        if (t_obj == NULL)
            goto fail;
        PyObject *v = call2(L->detector_query, L->pid_objs[t % L->n], t_obj);
        Py_DECREF(t_obj);
        if (v != NULL && v != Py_None) {
            PyObject *interned = call1(L->intern_fd, v);
            Py_DECREF(v);
            v = interned;
        }
        if (v == NULL)
            goto fail;
        PyList_SET_ITEM(values, i, v);
    }
    return values;
fail:
    Py_DECREF(values);
    return NULL;
}

/* The idle steps of the crash-free round-robin span [start, end), staged
 * for the store: _skip_span_rr's uniform branch followed by
 * FullRecorder.on_idle_span over StepStore.extend_idle_span -- the
 * detector queried in tick order for the ticks before the settle tick
 * and the settled value interned for the rest, then last_live_tick,
 * _step_index and the rows (run.end_time moves with the flush).  A raise
 * from a query moves nothing. */
static int
loop_fill_idle(Loop *L, int64_t start, int64_t end)
{
    Py_ssize_t k = (Py_ssize_t)(end - start);
    int64_t cut = L->settle_at < start ? start
        : (L->settle_at < end ? L->settle_at : end);
    PyObject *fd_values = NULL, *settled = NULL;
    if (cut > start) {
        fd_values = idle_fd_values(L, start, (Py_ssize_t)(cut - start));
        if (fd_values == NULL)
            return -1;
    }
    if (cut < end) {
        settled = L->settled == Py_None
            ? Py_NewRef(Py_None) : call1(L->intern_fd, L->settled);
        if (settled == NULL) {
            Py_XDECREF(fd_values);
            return -1;
        }
    }
    int64_t first_index = L->clock[CLOCK_STEP_INDEX];
    L->clock[CLOCK_LAST_LIVE] = end - 1;
    L->clock[CLOCK_STEP_INDEX] = first_index + k;
    int rc = 0;
    for (Py_ssize_t i = 0; i < k && rc == 0; i++) {
        int64_t t = start + i;
        PyObject *fd = t < cut ? PyList_GET_ITEM(fd_values, i) : settled;
        rc = stage_row(L, first_index + i, t, (long)(t % L->n), fd, -1,
                       Py_None, -1, 0, 0, 0);
    }
    Py_XDECREF(fd_values);
    Py_XDECREF(settled);
    return rc;
}

/* *offset := where the step context keeps `name`: the offset of the
 * plain object slot that attribute lookup on `ctx` resolves it to.  A
 * property, a read-only member or no slot at all is refused by name. */
static int
ctx_slot(PyObject *ctx, PyObject *name, Py_ssize_t *offset)
{
    PyObject *descr = PyObject_GetAttr((PyObject *)Py_TYPE(ctx), name);
    if (descr == NULL)
        PyErr_Clear(); /* no such attribute: refused below */
    int plain = descr != NULL && Py_IS_TYPE(descr, &PyMemberDescr_Type)
        && PyObject_TypeCheck(ctx, PyDescr_TYPE(descr));
    if (plain) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        plain = member->type == Py_T_OBJECT_EX
            && !(member->flags & Py_READONLY);
        *offset = member->offset;
    }
    Py_XDECREF(descr);
    if (!plain) {
        PyErr_Format(PyExc_TypeError,
                     "run_loop: the step context's %U must be a plain slot",
                     name);
        return -1;
    }
    return 0;
}

/* ctx.<slot at offset> = value, as a slot's setter does it */
static inline void
slot_store(PyObject *obj, Py_ssize_t offset, PyObject *value)
{
    PyObject **slot = (PyObject **)((char *)obj + offset);
    PyObject *old = *slot;
    *slot = Py_NewRef(value);
    Py_XDECREF(old);
}

/* -- protocol stacks dispatched from C ----------------------------------- */

/* getattr(obj, name) that reports a missing attribute without raising:
 * 1 found (*out owned), 0 missing (*out NULL), -1 error. */
#if PY_VERSION_HEX >= 0x030D0000
#define lookup_optional PyObject_GetOptionalAttr
#else
#define lookup_optional _PyObject_LookupAttr
#endif

/* A ProtocolStack's dispatch plan (ProtocolStack._dispatch_plan): its
 * layers' bound on_message and, by layer index, their contexts bound to
 * the loop's step context; the bound on_timeout of the layers that
 * override it and their contexts; the pending deque and the bound _drain.
 * The loop then runs ProtocolStack.on_message and on_timeout itself
 * (plan_message, plan_timeout) and calls Python only for the layers'
 * handlers and, when something is pending, the drain. */
enum {
    PLAN_MESSAGE, PLAN_CONTEXTS, PLAN_TIMEOUT, PLAN_TIMEOUT_CONTEXTS,
    PLAN_PENDING, PLAN_DRAIN, PLAN_SIZE
};

#define PLAN_ITEM(plan, i) PyTuple_GET_ITEM((plan), (i))

/* L->plans[p] := process._dispatch_plan(ctx), or NULL when the process
 * has no such method or hands None (a stack whose on_message or on_timeout
 * is not ProtocolStack's): the loop then calls the process's own bound
 * on_message / on_timeout.  A plan of the wrong shape is refused. */
static int
plan_init(Loop *L, long p, PyObject *process)
{
    PyObject *plan_fn;
    int found = lookup_optional(process, s__dispatch_plan, &plan_fn);
    if (found <= 0)
        return found;
    PyObject *plan = call1(plan_fn, L->ctx);
    Py_DECREF(plan_fn);
    if (plan == NULL)
        return -1;
    if (plan == Py_None) {
        Py_DECREF(plan);
        return 0;
    }
    L->plans[p] = plan;
    int ok = PyTuple_Check(plan) && PyTuple_GET_SIZE(plan) == PLAN_SIZE;
    for (int i = 0; ok && i < PLAN_PENDING; i++)
        ok = PyTuple_Check(PLAN_ITEM(plan, i));
    ok = ok && PyTuple_GET_SIZE(PLAN_ITEM(plan, PLAN_MESSAGE)) > 0
        && PyTuple_GET_SIZE(PLAN_ITEM(plan, PLAN_CONTEXTS))
            == PyTuple_GET_SIZE(PLAN_ITEM(plan, PLAN_MESSAGE))
        && PyTuple_GET_SIZE(PLAN_ITEM(plan, PLAN_TIMEOUT_CONTEXTS))
            == PyTuple_GET_SIZE(PLAN_ITEM(plan, PLAN_TIMEOUT));
    if (!ok) {
        PyErr_SetString(PyExc_TypeError,
                        "run_loop: a dispatch plan must be a tuple (handlers, "
                        "contexts, timeout handlers, timeout contexts, "
                        "pending, drain) with one context per handler and "
                        "at least one layer");
        return -1;
    }
    return 0;
}

/* 0 or -1 for a call's result, released */
static inline int
call_status(PyObject *r)
{
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* `if self._pending: self._drain(ctx)` */
static int
plan_drain(Loop *L, PyObject *plan)
{
    int due = PyObject_IsTrue(PLAN_ITEM(plan, PLAN_PENDING));
    if (due <= 0)
        return due;
    return call_status(call1(PLAN_ITEM(plan, PLAN_DRAIN), L->ctx));
}

/* ProtocolStack.on_message: a payload framed exactly as (index, inner) --
 * a plain tuple of two led by a plain int naming a layer -- goes to that
 * layer as inner; anything else (a tuple subclass such as MessageId, an
 * unframed client message) goes whole to the top layer. */
static int
plan_message(Loop *L, PyObject *plan, PyObject *sender, PyObject *payload)
{
    PyObject *handlers = PLAN_ITEM(plan, PLAN_MESSAGE);
    Py_ssize_t layers = PyTuple_GET_SIZE(handlers);
    Py_ssize_t index = layers - 1;
    PyObject *inner = payload;
    if (PyTuple_CheckExact(payload) && PyTuple_GET_SIZE(payload) == 2
        && PyLong_CheckExact(PyTuple_GET_ITEM(payload, 0))) {
        /* an exact int: no error, and past a long it is out of range */
        int overflow;
        long framed = PyLong_AsLongAndOverflow(PyTuple_GET_ITEM(payload, 0),
                                               &overflow);
        if (!overflow && framed >= 0 && framed < layers) {
            index = framed;
            inner = PyTuple_GET_ITEM(payload, 1);
        }
    }
    if (call_status(call3(PyTuple_GET_ITEM(handlers, index),
                          PyTuple_GET_ITEM(PLAN_ITEM(plan, PLAN_CONTEXTS),
                                           index),
                          sender, inner)) < 0)
        return -1;
    return plan_drain(L, plan);
}

/* ProtocolStack.on_timeout: the layers that override on_timeout, bottom
 * up, then the drain. */
static int
plan_timeout(Loop *L, PyObject *plan)
{
    PyObject *handlers = PLAN_ITEM(plan, PLAN_TIMEOUT);
    PyObject *contexts = PLAN_ITEM(plan, PLAN_TIMEOUT_CONTEXTS);
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(handlers); i++) {
        if (call_status(call1(PyTuple_GET_ITEM(handlers, i),
                              PyTuple_GET_ITEM(contexts, i))) < 0)
            return -1;
    }
    return plan_drain(L, plan);
}

static int
loop_init(Loop *L, PyObject *sim, PyObject *store, PyObject *metrics)
{
    memset(L, 0, sizeof(*L));
    L->sim = sim;
    PyObject *net;
    GETA(net, sim, s_network);
    int r_view = net_view_init(&L->nv, net);
    Py_DECREF(net);
    if (r_view < 0)
        return -1;
    /* sim.n: the network has one shard per process */
    L->n = (long)L->nv.pool->n;
    GETA(L->processes, sim, s_processes);
    GETA(L->ctx, sim, s__ctx);
    PyObject **bufs[3] = {&L->outbox, &L->outputs, &L->log_buf};
    PyObject *buf_names[3] = {s__outbox, s__outputs, s__log};
    for (int i = 0; i < 3; i++) {
        GETA(*bufs[i], L->ctx, buf_names[i]);
        if (!PyList_Check(*bufs[i])) {
            PyErr_Format(PyExc_TypeError, "run_loop: %U must be a list",
                         buf_names[i]);
            return -1;
        }
    }
    if (ctx_slot(L->ctx, s_pid, &L->off_pid) < 0
        || ctx_slot(L->ctx, s_time, &L->off_time) < 0
        || ctx_slot(L->ctx, s_fd_value, &L->off_fd) < 0)
        return -1;
    /* the settle point Simulation read from the history at construction */
    PyObject *settle;
    GETA(settle, sim, s__fd_settle);
    if (!PyTuple_Check(settle) || PyTuple_GET_SIZE(settle) != 2) {
        Py_DECREF(settle);
        PyErr_SetString(PyExc_TypeError,
                        "run_loop: _fd_settle must be a (tick, value) tuple");
        return -1;
    }
    L->settle_at = PyLong_AsLongLong(PyTuple_GET_ITEM(settle, 0));
    L->settled = Py_NewRef(PyTuple_GET_ITEM(settle, 1));
    Py_DECREF(settle);
    if (L->settle_at == -1 && PyErr_Occurred())
        return -1;
    if (L->settle_at > 0) {
        PyObject *detector;
        GETA(detector, sim, s_detector);
        L->detector_query = PyObject_GetAttr(detector, s_query);
        Py_DECREF(detector);
        if (L->detector_query == NULL)
            return -1;
    }
    PyObject *fp;
    GETA(fp, sim, s_failure_pattern);
    L->crash_times = PyObject_GetAttr(fp, s_crash_times);
    Py_DECREF(fp);
    if (L->crash_times == NULL)
        return -1;
    if (!PyDict_Check(L->crash_times)) {
        PyErr_SetString(PyExc_TypeError, "crash_times must be a dict");
        return -1;
    }
    PyObject *scheduling;
    GETA(scheduling, sim, s_scheduling);
    L->random = PyUnicode_Check(scheduling)
        && PyUnicode_CompareWithASCIIString(scheduling, "random") == 0;
    Py_DECREF(scheduling);
    PyObject *materialize;
    GETA(materialize, sim, s__materialize_idle);
    L->materialize_idle = materialize == Py_True; /* Simulation's bool */
    Py_DECREF(materialize);
    if (L->materialize_idle) {
        if (L->random) {
            PyErr_SetString(PyExc_ValueError,
                            "run_loop: random scheduling cannot "
                            "materialize idle steps");
            return -1;
        }
        GETA(L->skip_span, sim, s__skip_span_rr);
    }
    GETA(L->sim_metrics, sim, s_metrics);
    long n = L->n;
    /* Simulation.add_input lowers _local_event, and a handler or observer
     * holding the sim may call it mid-run: the loop reads the buffer at
     * every use.  The clock is stored through as it moves, so Python reads
     * it exact whenever it is called. */
    if (i64_view(sim, s__local_event, n, &L->cursor_bufs[0],
                 &L->local_event) < 0
        || i64_view(sim, s__next_timeout, n, &L->cursor_bufs[1],
                    &L->next_timeout) < 0
        || i64_view(sim, s__clock, N_CLOCK, &L->cursor_bufs[2],
                    &L->clock) < 0)
        return -1;
    GETA(L->inputs_by_pid, sim, s__inputs);
    GETA(L->started, sim, s__started);
    GETA(L->step_obs, sim, s__step_observers);
    GETA(L->run, sim, s_run);
    GETA(L->intervals, sim, s_timeout_intervals);
    if (get_i64_attr(sim, s_message_batch, &L->message_batch) < 0)
        return -1;
    if (!PyList_Check(L->processes) || !PyList_Check(L->inputs_by_pid)
        || !PyList_Check(L->intervals) || !PyList_Check(L->step_obs)) {
        PyErr_SetString(PyExc_TypeError, "run_loop: expected list state");
        return -1;
    }
    if (PyList_GET_SIZE(L->processes) != n
        || PyList_GET_SIZE(L->inputs_by_pid) != n
        || PyList_GET_SIZE(L->intervals) != n) {
        PyErr_SetString(PyExc_ValueError,
                        "run_loop: state lists do not match the network's n");
        return -1;
    }
    L->crash_at = PyMem_Malloc(n * sizeof(int64_t));
    L->interval = PyMem_Malloc(n * sizeof(int64_t));
    L->pid_objs = PyMem_Calloc(n, sizeof(PyObject *));
    L->plans = PyMem_Calloc(n, sizeof(PyObject *));
    L->on_message_m = PyMem_Calloc(n, sizeof(PyObject *));
    L->on_timeout_m = PyMem_Calloc(n, sizeof(PyObject *));
    if (L->crash_at == NULL || L->interval == NULL || L->pid_objs == NULL
        || L->plans == NULL || L->on_message_m == NULL
        || L->on_timeout_m == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (L->random) {
        PyObject *seed;
        GETA(seed, sim, s_seed);
        int rc = perm_seed_mix(seed, &L->seed_mix);
        Py_DECREF(seed);
        if (rc < 0)
            return -1;
        L->perm = PyMem_Malloc(n * sizeof(long));
        if (L->perm == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        L->perm_block = -1;
    }
    for (long p = 0; p < n; p++)
        L->crash_at[p] = INT64_MAX;
    L->first_crash = INT64_MAX;
    L->all_dead_from = PyDict_GET_SIZE(L->crash_times) == n ? 0 : INT64_MAX;
    L->has_crashes = PyDict_GET_SIZE(L->crash_times) > 0;
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    while (PyDict_Next(L->crash_times, &pos, &key, &value)) {
        long pid = PyLong_AsLong(key);
        int64_t at = PyLong_AsLongLong(value);
        if (PyErr_Occurred())
            return -1;
        if (pid < 0 || pid >= n) {
            PyErr_Format(PyExc_ValueError, "crash pid %ld out of range", pid);
            return -1;
        }
        L->crash_at[pid] = at;
        if (at < L->first_crash)
            L->first_crash = at;
        if (L->all_dead_from != INT64_MAX && at > L->all_dead_from)
            L->all_dead_from = at;
    }
    for (long p = 0; p < n; p++) {
        L->interval[p] = PyLong_AsLongLong(PyList_GET_ITEM(L->intervals, p));
        if (PyErr_Occurred())
            return -1;
        L->pid_objs[p] = PyLong_FromLong(p);
        if (L->pid_objs[p] == NULL)
            return -1;
        PyObject *process = PyList_GET_ITEM(L->processes, p);
        if (plan_init(L, p, process) < 0)
            return -1;
        if (L->plans[p] != NULL)
            continue;
        L->on_message_m[p] = PyObject_GetAttr(process, s_on_message);
        if (L->on_message_m[p] == NULL)
            return -1;
        L->on_timeout_m[p] = PyObject_GetAttr(process, s_on_timeout);
        if (L->on_timeout_m[p] == NULL)
            return -1;
    }
    if (store != Py_None) {
        /* single-FullRecorder fast path: stage rows for the store */
        L->has_store = 1;
        L->store = store;
        PyObject *col_names[10] = {
            s__index, s__time_col, s__pid_col, s__fd, s__msg_sender,
            s__msg_payload, s__msg_send_time, s__timeout, s__sent,
            s__received,
        };
        for (int i = 0; i < 10; i++)
            GETA(L->st_col[i], store, col_names[i]);
        if (stage_init(L) < 0)
            return -1;
        GETA(L->intern_fd, store, s__intern_fd);
        GETA(L->sparse_inputs, store, s__inputs);
        GETA(L->sparse_outputs, store, s__outputs);
        GETA(L->input_history, L->run, s_input_history);
        GETA(L->output_history, L->run, s_output_history);
        if (!L->random && fill_idle_init(L) < 0)
            return -1;
    } else {
        /* step observers: cache their bound on_step_raw -- all but the
         * leading MetricsRecorder, when the loop folds its counts */
        Py_ssize_t first = 0;
        if (metrics != Py_None) {
            L->metrics = metrics;
            Py_INCREF(metrics);
            L->fold_end = -1;
            L->fold_by_pid = PyMem_Calloc(n, sizeof(int64_t));
            if (L->fold_by_pid == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            first = 1;
        }
        Py_ssize_t count = PyList_GET_SIZE(L->step_obs) - first;
        L->raw_methods = PyMem_Calloc(count > 0 ? count : 1,
                                      sizeof(PyObject *));
        if (L->raw_methods == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            L->raw_methods[i] = PyObject_GetAttr(
                PyList_GET_ITEM(L->step_obs, first + i), s_on_step_raw);
            if (L->raw_methods[i] == NULL) {
                L->raw_count = i;
                return -1;
            }
            L->raw_count = i + 1;
        }
    }
    PyObject *log_obs = PyObject_GetAttr(sim, s__log_observers);
    if (log_obs == NULL)
        return -1;
    if (PyList_Check(log_obs) && PyList_GET_SIZE(log_obs) > 0) {
        Py_ssize_t count = PyList_GET_SIZE(log_obs);
        L->log_methods = PyMem_Calloc(count, sizeof(PyObject *));
        if (L->log_methods == NULL) {
            Py_DECREF(log_obs);
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            L->log_methods[i] = PyObject_GetAttr(
                PyList_GET_ITEM(log_obs, i), s_on_log);
            if (L->log_methods[i] == NULL) {
                L->log_count = i;
                Py_DECREF(log_obs);
                return -1;
            }
            L->log_count = i + 1;
        }
    }
    Py_DECREF(log_obs);
    L->empty_tuple = PyTuple_New(0); /* the singleton: never fails */
    return 0;
}

/* 1 when `pid` has work due at `t` -- a local event (timeout, input,
 * pending on_start) or a deliverable message -- else 0. */
static inline int
pid_due(Loop *L, long pid, int64_t t)
{
    return L->local_event[pid] <= t || L->nv.next_at[pid] <= t;
}

/* record="metrics" in C: each executed step is folded into L's counters
 * exactly as MetricsRecorder.on_step_raw folds it into RunMetrics, and the
 * counts are added into the RunMetrics when the loop returns or fails (a
 * step that raises is not folded, as the recorder would not have seen
 * it).  Added, not stored: the recorder's on_step_raw may still run
 * mid-loop for idle steps that _skip_span_rr materializes.  So the
 * RunMetrics is exact between run calls, not inside one -- nothing reads
 * it there. */
static int
loop_fold_flush(Loop *L)
{
    if (L->metrics == NULL)
        return 0;
    PyObject *names[6] = {
        s_steps, s_messages_sent, s_messages_received, s_timeouts_fired,
        s_inputs, s_outputs,
    };
    int64_t *counts[6] = {
        &L->fold_steps, &L->fold_sent, &L->fold_received,
        &L->fold_timeouts, &L->fold_inputs, &L->fold_outputs,
    };
    for (int i = 0; i < 6; i++) {
        if (*counts[i] == 0)
            continue;
        if (add_i64_attr(L->metrics, names[i], *counts[i]) < 0)
            return -1;
        *counts[i] = 0;
    }
    PyObject *by_pid = PyObject_GetAttr(L->metrics, s_steps_by_pid);
    if (by_pid == NULL)
        return -1;
    if (!PyList_Check(by_pid) || PyList_GET_SIZE(by_pid) != L->n) {
        Py_DECREF(by_pid);
        PyErr_SetString(PyExc_ValueError,
                        "run_loop: metrics.steps_by_pid must be a list of n");
        return -1;
    }
    for (long p = 0; p < L->n; p++) {
        if (L->fold_by_pid[p] == 0)
            continue;
        if (list_add_i64(by_pid, p, L->fold_by_pid[p]) < 0) {
            Py_DECREF(by_pid);
            return -1;
        }
        L->fold_by_pid[p] = 0;
    }
    Py_DECREF(by_pid);
    if (L->fold_end >= 0) {
        int64_t end_time;
        if (get_i64_attr(L->metrics, s_end_time, &end_time) < 0)
            return -1;
        if (L->fold_end > end_time
            && set_i64_attr(L->metrics, s_end_time, L->fold_end) < 0)
            return -1;
        L->fold_end = -1;
    }
    return 0;
}

/* -- scheduling="random" ------------------------------------------------- */

/* L->perm := the schedule permutation of `block`, bit for bit
 * repro.sim.types.block_permutation(seed, block, n) (the Python body is
 * the definition and the oracle):
 *     key = mix64(mix64(mix64(TAG) ^ seed) ^ block)
 *     for i = n-1 .. 1: swap slots i and (mix64(key ^ i) * (i + 1)) >> 64
 * with seed and block taken mod 2**64 and the high word of the product
 * formed in 32-bit halves.  The per-seed half of the key is mixed once,
 * at loop init.  The loop keeps a one-block cache of its own, apart from
 * the Python side's (sim._permutation / sim._perm_block): a derivation
 * costs ~0.2 us and touches no Python object, so deriving an edge block
 * on both sides is cheaper than passing it across. */
static inline void
loop_perm(Loop *L, int64_t block)
{
    if (block != L->perm_block) {
        permutation_fill(L->perm, L->n, L->seed_mix, (uint64_t)block);
        L->perm_block = block;
    }
}

/* -- idle spans counted in C --------------------------------------------- */

/* Idle ticks the loop counts itself -- every idle span when nothing
 * materializes idle steps (loop_count_idle), and under random scheduling
 * each idle tick of the block an event falls in, as
 * Simulation._advance_event_random_block walks it -- store the last of
 * them into the clock at once and accumulate as `idle_acc`.
 * loop_flush_idle adds that to sim.metrics.idle_ticks_skipped (the
 * RunMetrics the sim held at loop init; a dataclass, so a Python call)
 * before every call back into Python and when the loop returns or fails --
 * handlers and observers read it mid-run. */
static int
loop_flush_idle(Loop *L)
{
    if (L->idle_acc == 0)
        return 0;
    if (add_i64_attr(L->sim_metrics, s_idle_ticks_skipped, L->idle_acc) < 0)
        return -1;
    L->idle_acc = 0;
    return 0;
}

/* a mod n in [0, n) (ticks and crash times are >= 0, pids may lead them) */
static inline int64_t
floor_mod(int64_t a, long n)
{
    int64_t m = a % n;
    return m < 0 ? m + n : m;
}

/* Ticks in [lo, hi), inside `block`, owned by an already-crashed process. */
static int64_t
crashed_in_segment(Loop *L, int64_t block, int64_t lo, int64_t hi)
{
    loop_perm(L, block);
    int64_t base = block * L->n, count = 0;
    for (int64_t t = lo; t < hi; t++)
        count += t >= L->crash_at[L->perm[t - base]];
    return count;
}

/* Simulation._crashed_ticks_random: a process occupies one slot per
 * block, so whole blocks count arithmetically and only the span's edge
 * blocks and each crash's boundary block derive their permutation. */
static int64_t
crashed_ticks_random(Loop *L, int64_t start, int64_t end)
{
    long n = L->n;
    int64_t first_block = start / n, last_block = (end - 1) / n;
    if (first_block == last_block)
        return crashed_in_segment(L, first_block, start, end);
    int64_t crashed = 0, full_lo = first_block, full_hi = last_block;
    if (start % n) {
        crashed += crashed_in_segment(L, first_block, start,
                                      (first_block + 1) * n);
        full_lo = first_block + 1;
    }
    if (end % n)
        crashed += crashed_in_segment(L, last_block, last_block * n, end);
    else
        full_hi = last_block + 1;
    for (long p = 0; p < n; p++) {
        int64_t crash_at = L->crash_at[p];
        if (crash_at == INT64_MAX)
            continue;
        int64_t dead_from = crash_at / n + (crash_at % n != 0);
        int64_t lo = full_lo > dead_from ? full_lo : dead_from;
        if (lo < full_hi)
            crashed += full_hi - lo;
        int64_t boundary = crash_at / n;
        if (boundary < dead_from && full_lo <= boundary
            && boundary < full_hi) {
            loop_perm(L, boundary);
            long slot = 0;
            while (L->perm[slot] != p)
                slot++;
            crashed += boundary * n + slot >= crash_at;
        }
    }
    return crashed;
}

/* Simulation._last_live_tick_random: the last live tick in [start, end),
 * or -1.  Some block slot is live unless every process has crashed, and
 * then every tick from the last crash on is dead: the walk stays within
 * two blocks. */
static int64_t
last_live_tick_random(Loop *L, int64_t start, int64_t end)
{
    long n = L->n;
    int64_t t = end - 1;
    if (t > L->all_dead_from - 1)
        t = L->all_dead_from - 1;
    while (t >= start) {
        int64_t block = t / n, base = block * n;
        loop_perm(L, block);
        int64_t lo = base > start ? base : start;
        for (; t >= lo; t--)
            if (t < L->crash_at[L->perm[t - base]])
                return t;
    }
    return -1;
}

/* Counts the idle span [start, end) into idle_acc and the clock, as
 * _skip_span_rr's counting branch or _skip_span_random would add it to
 * the sim: a crash-free span is all live, a round-robin process's slots
 * are an arithmetic progression clipped by its crash. */
static void
loop_count_idle(Loop *L, int64_t start, int64_t end)
{
    int64_t live = end - start, last = end - 1;
    if (end > L->first_crash && L->random) {
        live -= crashed_ticks_random(L, start, end);
        last = live ? last_live_tick_random(L, start, end) : -1;
    } else if (end > L->first_crash) {
        long n = L->n;
        live = 0;
        last = -1;
        for (long p = 0; p < n; p++) {
            int64_t hi = end < L->crash_at[p] ? end : L->crash_at[p];
            int64_t first = start + floor_mod(p - start, n);
            if (first >= hi)
                continue;
            int64_t p_last = hi - 1 - floor_mod(hi - 1 - p, n);
            live += (p_last - first) / n + 1;
            if (p_last > last)
                last = p_last;
        }
    }
    L->idle_acc += live;
    if (last > L->clock[CLOCK_LAST_LIVE])
        L->clock[CLOCK_LAST_LIVE] = last;
}

/* run_loop(sim, t_end, store, metrics) — the event engine's tick loop in C.
 *
 * Round-robin: byte-identical to kernel.run_fused_rr over the Python
 * pool of a PackedNetwork.  Random
 * scheduling: byte-identical to `while sim.time < t_end:
 * sim._advance_event_random(t_end)` at reduced fidelity (nothing
 * materializes idle steps; kernel.fused_runner checks).  Same handler call
 * order, same merge-layer mutations in the same order, same store appends.
 * A raise leaves the step it interrupted half done and ends the run.
 * `store` is the single-FullRecorder StepStore (or None), `metrics` the
 * RunMetrics of a leading MetricsRecorder (or None, the default); the
 * Python wrapper resolves both before handing off. */
static PyObject *
ckernel_run_loop(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3 && nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "run_loop(sim, t_end, store[, metrics]) takes 3 "
                        "or 4 arguments");
        return NULL;
    }
    PyObject *sim = args[0];
    int64_t t_end = PyLong_AsLongLong(args[1]);
    if (t_end == -1 && PyErr_Occurred())
        return NULL;
    Loop loop_state;
    Loop *L = &loop_state;
    if (loop_init(L, sim, args[2], nargs == 4 ? args[3] : Py_None) < 0) {
        loop_free(L);
        return NULL;
    }
    PoolObject *pool = L->nv.pool;
    long n = L->n;
    int64_t *clock = L->clock;
    int64_t t = clock[CLOCK_TIME];
    /* Per-step owned temporaries, function-scoped so step_fail can see
     * them; always NULL outside an executed step. */
    PyObject *t_obj = NULL, *fd_value = NULL, *inputs_t = NULL;
    PyObject *outputs_t = NULL, *first_payload = NULL;
    if (get_i64_attr(L->run, s_end_time, &L->run_end_time) < 0)
        goto fail;

    while (t < t_end) {
        /* The scheduled process: t % n, or slot t % n of the block's
         * permutation -- looked at only while that block is the cached
         * one, so no permutation is derived for a block the idle branch
         * below is about to skip whole. */
        long pid;
        if (!L->random)
            pid = (long)(t % n);
        else
            pid = t / n == L->perm_block ? L->perm[t % n] : -1;
        if (pid >= 0 && !(L->has_crashes && t >= L->crash_at[pid])
            && pid_due(L, pid, t)) {
            /* ---- one fused executed step (mirrors run_fused_rr) ---- */
            PyObject *pid_obj = L->pid_objs[pid];
            PyObject *process = PyList_GET_ITEM(L->processes, pid);
            if (loop_flush_idle(L) < 0)
                goto fail;
            clock[CLOCK_TIME] = t + 1;
            clock[CLOCK_LAST_LIVE] = t;
            t_obj = PyLong_FromLongLong(t);
            if (t_obj == NULL)
                goto step_fail;
            if (t >= L->settle_at) {
                fd_value = Py_NewRef(L->settled);
            } else {
                fd_value = call2(L->detector_query, pid_obj, t_obj);
                if (fd_value == NULL)
                    goto step_fail;
            }
            slot_store(L->ctx, L->off_pid, pid_obj);
            slot_store(L->ctx, L->off_time, t_obj);
            slot_store(L->ctx, L->off_fd, fd_value);
            /* a set of ints: the lookup cannot fail */
            if (!PySet_Contains(L->started, pid_obj)) {
                if (PySet_Add(L->started, pid_obj) < 0)
                    goto step_fail;
                PyObject *on_start = PyObject_GetAttr(process, s_on_start);
                if (on_start == NULL)
                    goto step_fail;
                PyObject *r = call1(on_start, L->ctx);
                Py_DECREF(on_start);
                if (r == NULL)
                    goto step_fail;
                Py_DECREF(r);
            }

            /* input drain */
            PyObject *in_q = PyList_GET_ITEM(L->inputs_by_pid, pid);
            int64_t q_head_at = 0;
            int q_due = peek_input_at(in_q, &q_head_at);
            if (q_due < 0)
                goto step_fail;
            q_due = q_due > 0 && q_head_at <= t;
            if (q_due) {
                PyObject *drained = PyList_New(0);
                if (drained == NULL)
                    goto step_fail;
                PyObject *on_input = PyObject_GetAttr(process, s_on_input);
                if (on_input == NULL) {
                    Py_DECREF(drained);
                    goto step_fail;
                }
                for (;;) {
                    int64_t at;
                    if (peek_input_at(in_q, &at) <= 0 || at > t)
                        break; /* empty, not due, or refused */
                    PyObject *popped = call1(g_heappop, in_q);
                    if (popped == NULL)
                        break;
                    PyObject *value = PyTuple_GET_ITEM(popped, 2);
                    if (PyList_Append(drained, value) < 0) {
                        Py_DECREF(popped);
                        break;
                    }
                    PyObject *r = call2(on_input, L->ctx, value);
                    Py_DECREF(popped);
                    if (r == NULL)
                        break;
                    Py_DECREF(r);
                }
                Py_DECREF(on_input);
                if (PyErr_Occurred()) {
                    Py_DECREF(drained);
                    goto step_fail;
                }
                inputs_t = PyList_AsTuple(drained);
                Py_DECREF(drained);
                if (inputs_t == NULL)
                    goto step_fail;
            } else {
                inputs_t = L->empty_tuple;
                Py_INCREF(inputs_t);
            }

            /* message pops straight off the C shard heap */
            long received = 0;
            long first_sender = -1;
            int64_t first_send_time = -1;
            PyObject *plan = L->plans[pid];
            if (L->nv.next_at[pid] <= t) {
                Shard *shard = &pool->shards[pid];
                while (received < L->message_batch && shard->len > 0) {
                    int32_t top = shard->items[0];
                    int64_t deliver_at = pool->col_deliver[top];
                    if (deliver_at > t)
                        break;
                    shard_pop(pool, shard);
                    long sender = (long)pool->col_sender[top];
                    PyObject *payload = pool->col_payload[top]; /* stolen */
                    pool->col_payload[top] = NULL;
                    pool->free_stack[pool->free_top++] = top;
                    if (received == 0) {
                        first_sender = sender;
                        first_payload = payload;
                        Py_INCREF(first_payload);
                        first_send_time = pool->col_send_time[top];
                    }
                    received += 1;
                    /* a sender outside 0..n-1 can only come from a direct
                     * network.send(); it still must not index pid_objs */
                    PyObject *sender_obj;
                    if (sender >= 0 && sender < n) {
                        sender_obj = L->pid_objs[sender];
                        Py_INCREF(sender_obj);
                    } else {
                        sender_obj = PyLong_FromLong(sender);
                    }
                    int r_msg = sender_obj == NULL ? -1
                        : plan != NULL
                        ? plan_message(L, plan, sender_obj, payload)
                        : call_status(call3(L->on_message_m[pid], L->ctx,
                                            sender_obj, payload));
                    Py_XDECREF(sender_obj);
                    Py_DECREF(payload);
                    if (r_msg < 0)
                        goto step_fail;
                }
                fold_pops(&L->nv, pid, received);
            }

            /* timeout */
            int timeout_fired = 0;
            if (t >= L->next_timeout[pid]) {
                timeout_fired = 1;
                L->next_timeout[pid] = t + L->interval[pid];
                if ((plan != NULL ? plan_timeout(L, plan)
                     : call_status(call1(L->on_timeout_m[pid], L->ctx))) < 0)
                    goto step_fail;
            }

            /* outbox expansion through the C send path.  The delay model
             * is Python and could reach ctx._outbox, so each entry is held
             * while it is sent and the length is re-read, as a Python loop
             * over the list would. */
            long sent = 0;
            PyObject *outbox = L->outbox;
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(outbox); i++) {
                PyObject *entry = PyList_GET_ITEM(outbox, i);
                if (!PyTuple_Check(entry) || PyTuple_GET_SIZE(entry) != 2) {
                    PyErr_SetString(PyExc_TypeError,
                                    "outbox entries must be "
                                    "(receiver, payload) tuples");
                    goto step_fail;
                }
                Py_INCREF(entry);
                PyObject *recv_obj = PyTuple_GET_ITEM(entry, 0);
                PyObject *payload = PyTuple_GET_ITEM(entry, 1);
                long receiver = PyLong_AsLong(recv_obj);
                int r_send = receiver == -1 && PyErr_Occurred() ? -1 : 0;
                if (r_send == 0 && receiver >= 0) {
                    int64_t seq;
                    r_send = net_send(&L->nv, pid, pid_obj, recv_obj,
                                      payload, t, t_obj, &seq);
                    sent += 1;
                } else if (r_send == 0) {
                    /* BROADCAST_ALL (-1) includes the sender */
                    long fanout = 0;
                    r_send = net_send_all(&L->nv, pid, pid_obj, payload, t,
                                          t_obj, receiver == -1, &fanout);
                    sent += fanout;
                }
                Py_DECREF(entry);
                if (r_send < 0)
                    goto step_fail;
            }
            list_clear(outbox);

            /* outputs / log drains */
            if (PyList_GET_SIZE(L->outputs) > 0) {
                outputs_t = PyList_AsTuple(L->outputs);
                if (outputs_t == NULL)
                    goto step_fail;
                list_clear(L->outputs);
            } else {
                outputs_t = Py_NewRef(L->empty_tuple);
            }
            PyObject *log_buf = L->log_buf;
            for (Py_ssize_t e = 0;
                 L->log_count > 0 && e < PyList_GET_SIZE(log_buf); e++) {
                PyObject *cargs[4] = {sim, t_obj, pid_obj,
                                      Py_NewRef(PyList_GET_ITEM(log_buf, e))};
                int log_err = 0;
                for (Py_ssize_t i = 0; i < L->log_count && !log_err; i++) {
                    PyObject *r = PyObject_Vectorcall(L->log_methods[i],
                                                      cargs, 4, NULL);
                    log_err = r == NULL;
                    Py_XDECREF(r);
                }
                Py_DECREF(cargs[3]);
                if (log_err)
                    goto step_fail;
            }
            list_clear(log_buf);

            /* _refresh_local, inlined */
            int64_t event_at = L->next_timeout[pid];
            {
                int64_t at;
                int has = peek_input_at(in_q, &at);
                if (has < 0)
                    goto step_fail;
                if (has > 0 && at < event_at)
                    event_at = at;
            }
            L->local_event[pid] = event_at;

            int64_t index = clock[CLOCK_STEP_INDEX]++;

            if (L->has_store) {
                PyObject *fd_row = fd_value == Py_None
                    ? Py_NewRef(Py_None) : call1(L->intern_fd, fd_value);
                if (fd_row == NULL)
                    goto step_fail;
                int r_row = stage_row(
                    L, index, t, pid, fd_row, first_sender,
                    first_payload != NULL ? first_payload : Py_None,
                    first_send_time, timeout_fired, sent, received);
                Py_DECREF(fd_row);
                if (r_row < 0)
                    goto step_fail;
                if (PyTuple_GET_SIZE(inputs_t) > 0
                    || PyTuple_GET_SIZE(outputs_t) > 0) {
                    PyObject *position = PyLong_FromSsize_t(
                        PyByteArray_GET_SIZE(L->st_col[7]) + L->stage->len
                        - 1);
                    if (position == NULL)
                        goto step_fail;
                    int r_pos = 0;
                    if (PyTuple_GET_SIZE(inputs_t) > 0)
                        r_pos = PyDict_SetItem(L->sparse_inputs, position,
                                               inputs_t);
                    if (r_pos == 0 && PyTuple_GET_SIZE(outputs_t) > 0)
                        r_pos = PyDict_SetItem(L->sparse_outputs, position,
                                               outputs_t);
                    Py_DECREF(position);
                    if (r_pos < 0)
                        goto step_fail;
                }
                if (PyTuple_GET_SIZE(inputs_t) > 0
                    && history_extend(L->input_history, pid_obj, t_obj,
                                      inputs_t) < 0)
                    goto step_fail;
                if (PyTuple_GET_SIZE(outputs_t) > 0
                    && history_extend(L->output_history, pid_obj, t_obj,
                                      outputs_t) < 0)
                    goto step_fail;
            } else if (L->metrics != NULL) {
                /* MetricsRecorder.on_step_raw, folded (loop_fold_flush) */
                L->fold_steps += 1;
                L->fold_by_pid[pid] += 1;
                L->fold_sent += sent;
                L->fold_received += received;
                L->fold_timeouts += timeout_fired;
                L->fold_inputs += PyTuple_GET_SIZE(inputs_t);
                L->fold_outputs += PyTuple_GET_SIZE(outputs_t);
                if (t > L->fold_end)
                    L->fold_end = t;
            }
            if (L->raw_count > 0) {
                PyObject *index_obj = PyLong_FromLongLong(index);
                PyObject *sender_obj = PyLong_FromLong(first_sender);
                PyObject *send_time_obj =
                    PyLong_FromLongLong(first_send_time);
                PyObject *sent_obj = PyLong_FromLong(sent);
                PyObject *received_obj = PyLong_FromLong(received);
                if (index_obj == NULL || sender_obj == NULL
                    || send_time_obj == NULL || sent_obj == NULL
                    || received_obj == NULL) {
                    Py_XDECREF(index_obj);
                    Py_XDECREF(sender_obj);
                    Py_XDECREF(send_time_obj);
                    Py_XDECREF(sent_obj);
                    Py_XDECREF(received_obj);
                    goto step_fail;
                }
                PyObject *cargs[13] = {
                    sim, index_obj, t_obj, pid_obj, sender_obj,
                    first_payload != NULL ? first_payload : Py_None,
                    send_time_obj, fd_value, inputs_t, outputs_t,
                    timeout_fired ? Py_True : Py_False, sent_obj,
                    received_obj,
                };
                int raw_err = 0;
                for (Py_ssize_t i = 0; i < L->raw_count; i++) {
                    PyObject *r = PyObject_Vectorcall(L->raw_methods[i],
                                                      cargs, 13, NULL);
                    if (r == NULL) {
                        raw_err = 1;
                        break;
                    }
                    Py_DECREF(r);
                }
                Py_DECREF(index_obj);
                Py_DECREF(sender_obj);
                Py_DECREF(send_time_obj);
                Py_DECREF(sent_obj);
                Py_DECREF(received_obj);
                if (raw_err)
                    goto step_fail;
            }

            Py_CLEAR(t_obj);
            Py_CLEAR(fd_value);
            Py_CLEAR(inputs_t);
            Py_CLEAR(outputs_t);
            Py_CLEAR(first_payload);
            t += 1;
            continue;
        }

        /* ---- idle (or crash-gated) tick: jump forward ---- */
        /* The earliest tick some process can act on, crash-gated: its
         * event time clamped to now and, under round-robin, aligned to its
         * next slot (any slot of a random block may be its owner's). */
        int64_t target = 0;
        int have_target = 0;
        for (long p = 0; p < n; p++) {
            int64_t event_at = L->local_event[p];
            if (L->nv.next_at[p] < event_at)
                event_at = L->nv.next_at[p];
            int64_t tick = event_at > t ? event_at : t;
            if (!L->random) {
                int64_t m = (p - tick) % n;
                if (m < 0)
                    m += n;
                tick += m;
            }
            if (L->has_crashes && tick >= L->crash_at[p])
                continue;
            if (!have_target || tick < target) {
                target = tick;
                have_target = 1;
            }
        }
        int64_t jump_to = (!have_target || target >= t_end) ? t_end : target;
        if (jump_to > t) {
            /* idle_acc is 0 whenever idle steps are materialized */
            if (!L->materialize_idle) {
                loop_count_idle(L, t, jump_to);
            } else if (L->fill_idle && jump_to <= L->first_crash) {
                if (loop_fill_idle(L, t, jump_to) < 0)
                    goto fail;
            } else {
                if (stage_flush(L) < 0)
                    goto fail;
                PyObject *now_obj = PyLong_FromLongLong(t);
                PyObject *to_obj = PyLong_FromLongLong(jump_to);
                PyObject *r = (now_obj == NULL || to_obj == NULL)
                    ? NULL : call2(L->skip_span, now_obj, to_obj);
                Py_XDECREF(now_obj);
                Py_XDECREF(to_obj);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
                /* L->run_end_time may now lag run.end_time; every row
                 * staged next is later, so the next flush writes the
                 * right value. */
            }
            t = jump_to;
        }
        if (t == t_end)
            break;
        if (L->random) {
            /* An event is due at t, for some process: walk t's block up to
             * the first tick whose scheduled process has work (executed at
             * the top of the loop, its block now cached).  The slot of the
             * event's owner may already be behind t: the block then comes
             * up empty and the next event is recomputed past it. */
            int64_t base = t - t % n;
            int64_t hi = base + n < t_end ? base + n : t_end;
            loop_perm(L, t / n);
            for (; t < hi; t++) {
                long p = L->perm[t - base];
                if (L->has_crashes && t >= L->crash_at[p])
                    continue;
                if (pid_due(L, p, t))
                    break;
                L->idle_acc += 1;
                if (t > clock[CLOCK_LAST_LIVE])
                    clock[CLOCK_LAST_LIVE] = t;
            }
        }
    }
    if (loop_flush_idle(L) < 0 || loop_fold_flush(L) < 0
        || stage_flush(L) < 0)
        goto fail;
    clock[CLOCK_TIME] = t;
    loop_free(L);
    Py_RETURN_NONE;

step_fail:
    Py_XDECREF(t_obj);
    Py_XDECREF(fd_value);
    Py_XDECREF(inputs_t);
    Py_XDECREF(outputs_t);
    Py_XDECREF(first_payload);
fail:
    {
        /* the completed steps still count; the raise is what propagates */
        PyObject *type, *value, *traceback;
        PyErr_Fetch(&type, &value, &traceback);
        if (loop_flush_idle(L) < 0)
            PyErr_Clear();
        if (loop_fold_flush(L) < 0)
            PyErr_Clear();
        if (stage_flush(L) < 0)
            PyErr_Clear();
        PyErr_Restore(type, value, traceback);
    }
    loop_free(L);
    return NULL;
}

/* ======================================================================== */
/* stable_hash, block_permutation, draw_unit, draw_below: repro.sim.types  */
/* ======================================================================== */

/* Bit-identical to the Python body kept in sim/types.py (the oracle):
 * FNV-1a over the concatenated bytes of repr(part).encode() for every
 * part.  The Python body reduces mod 2**63 after every multiply; the low
 * 63 bits of a product depend only on the low 63 bits of its factors and
 * the xor touches the low 8, so wrapping uint64 arithmetic masked once at
 * the end yields the same value.
 *
 * Two shapes skip the repr object, both producing exactly repr's bytes:
 * an exact int that fits an int64 (decimal digits on the stack) and an
 * exact str of printable ASCII without quote or backslash (the characters
 * between two single quotes).  bool, int subclasses, wider ints, every
 * other str and every other type go through PyObject_Repr + UTF-8, which
 * also raises what repr(part).encode() raises. */

#define FNV_OFFSET_BASIS UINT64_C(1469598103934665603)
#define FNV_PRIME UINT64_C(1099511628211)

static inline uint64_t
fnv1a(uint64_t acc, const unsigned char *bytes, Py_ssize_t size)
{
    for (Py_ssize_t i = 0; i < size; i++)
        acc = (acc ^ bytes[i]) * FNV_PRIME;
    return acc;
}

static inline int
unicode_is_ascii(PyObject *text)
{
#if PY_VERSION_HEX < 0x030C0000
    /* before 3.12 a legacy str may not be in canonical form yet: it takes
     * the repr path */
    if (!PyUnicode_IS_READY(text))
        return 0;
#endif
    return PyUnicode_IS_ASCII(text);
}

static PyObject *
ckernel_stable_hash(PyObject *Py_UNUSED(module), PyObject *const *args,
                    Py_ssize_t nargs)
{
    uint64_t acc = FNV_OFFSET_BASIS;
    for (Py_ssize_t i = 0; i < nargs; i++) {
        PyObject *part = args[i];
        if (PyLong_CheckExact(part)) {
            int overflow;
            long long value = PyLong_AsLongLongAndOverflow(part, &overflow);
            if (!overflow) {
                /* 19 digits and a sign; 0 - (uint64_t)value is exact for
                 * INT64_MIN too */
                Py_BUILD_ASSERT(sizeof(long long) == sizeof(int64_t));
                unsigned char digits[20];
                unsigned char *first = digits + sizeof(digits);
                uint64_t magnitude =
                    value < 0 ? 0 - (uint64_t)value : (uint64_t)value;
                do {
                    *--first = (unsigned char)('0' + magnitude % 10);
                    magnitude /= 10;
                } while (magnitude);
                if (value < 0)
                    *--first = '-';
                acc = fnv1a(acc, first, digits + sizeof(digits) - first);
                continue;
            }
        }
        else if (PyUnicode_CheckExact(part) && unicode_is_ascii(part)) {
            const unsigned char *text = PyUnicode_1BYTE_DATA(part);
            Py_ssize_t size = PyUnicode_GET_LENGTH(part);
            uint64_t quoted = (acc ^ '\'') * FNV_PRIME;
            Py_ssize_t j = 0;
            for (; j < size; j++) {
                unsigned char c = text[j];
                if (c < 0x20 || c > 0x7e || c == '\'' || c == '"' || c == '\\')
                    break;
                quoted = (quoted ^ c) * FNV_PRIME;
            }
            if (j == size) {
                acc = (quoted ^ '\'') * FNV_PRIME;
                continue;
            }
        }
        PyObject *repr = PyObject_Repr(part);
        if (repr == NULL)
            return NULL;
        Py_ssize_t size;
        const char *utf8 = PyUnicode_AsUTF8AndSize(repr, &size);
        if (utf8 == NULL) {
            Py_DECREF(repr);
            return NULL;
        }
        acc = fnv1a(acc, (const unsigned char *)utf8, size);
        Py_DECREF(repr);
    }
    return PyLong_FromUnsignedLongLong(acc & (UINT64_MAX >> 1));
}

/* block_permutation(seed, block, n): the list run_loop's loop_perm
 * derives, bit-identical to the Python body in sim/types.py. */
static PyObject *
ckernel_block_permutation(PyObject *Py_UNUSED(module), PyObject *const *args,
                          Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "block_permutation(seed, block, n)");
        return NULL;
    }
    uint64_t seed_mix;
    if (perm_seed_mix(args[0], &seed_mix) < 0)
        return NULL;
    if (!PyLong_Check(args[1])) {
        PyErr_Format(PyExc_TypeError,
                     "block_permutation needs an int block, got %R", args[1]);
        return NULL;
    }
    uint64_t block = PyLong_AsUnsignedLongLongMask(args[1]);
    Py_ssize_t n = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (n < 0)
        n = 0; /* list(range(n)) */
    long *perm = PyMem_Malloc((n > 0 ? n : 1) * sizeof(long));
    if (perm == NULL)
        return PyErr_NoMemory();
    permutation_fill(perm, (long)n, seed_mix, block);
    PyObject *list = PyList_New(n);
    for (Py_ssize_t i = 0; list != NULL && i < n; i++) {
        PyObject *p = PyLong_FromLong(perm[i]);
        if (p == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, i, p);
    }
    PyMem_Free(perm);
    return list;
}

/* *out := the key of a counter-based draw over args[0 .. nargs), the tag
 * word then the seed and the coordinates: key = mix64(tag), then
 * key = mix64(key ^ w) for each later word, every word an int taken mod
 * 2**64 -- bit-identical to draw_unit / draw_below in sim/types.py. */
static int
draw_key(PyObject *const *args, Py_ssize_t nargs, const char *name,
         uint64_t *out)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError, "%s needs a tag and a seed", name);
        return -1;
    }
    uint64_t key = 0;
    for (Py_ssize_t i = 0; i < nargs; i++) {
        if (!PyLong_Check(args[i])) {
            PyErr_Format(PyExc_TypeError, "%s needs int words, got %R", name,
                         args[i]);
            return -1;
        }
        uint64_t word = PyLong_AsUnsignedLongLongMask(args[i]);
        key = mix64(i == 0 ? word : key ^ word);
    }
    *out = key;
    return 0;
}

static PyObject *
ckernel_draw_unit(PyObject *Py_UNUSED(module), PyObject *const *args,
                  Py_ssize_t nargs)
{
    uint64_t key;
    if (draw_key(args, nargs, "draw_unit", &key) < 0)
        return NULL;
    /* (key >> 11) + 1 <= 2**53 converts exactly; the divisor is a power
     * of two, so the quotient is exact too */
    return PyFloat_FromDouble((double)((key >> 11) + 1) / 9007199254740992.0);
}

static PyObject *
ckernel_draw_below(PyObject *Py_UNUSED(module), PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "draw_below needs a bound, a tag and a seed");
        return NULL;
    }
    if (!PyLong_Check(args[0])) {
        PyErr_Format(PyExc_TypeError, "draw_below needs an int bound, got %R",
                     args[0]);
        return NULL;
    }
    uint64_t bound = PyLong_AsUnsignedLongLong(args[0]);
    if (bound == (uint64_t)-1 && PyErr_Occurred()) {
        PyErr_Clear(); /* OverflowError: negative or >= 2**64 */
        bound = 0;     /* out of range like 0 */
    }
    if (bound == 0) {
        PyErr_Format(PyExc_ValueError,
                     "draw_below needs 1 <= bound < 2**64, got %R", args[0]);
        return NULL;
    }
    uint64_t key;
    if (draw_key(args + 1, nargs - 1, "draw_below", &key) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(mulhi64(key, bound));
}

/* send_packed(net, sender, receiver, payload, t) -> seq and
 * send_all_packed(net, sender, payload, t, include_self) -> count: the
 * bodies of CompiledPackedNetwork's send methods, and the same code
 * run_loop expands an outbox through. */
static PyObject *
ckernel_send_packed(PyObject *Py_UNUSED(module), PyObject *const *args,
                    Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "send_packed(net, sender, receiver, payload, t)");
        return NULL;
    }
    long sender = PyLong_AsLong(args[1]);
    int64_t t = PyLong_AsLongLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
    NetView nv = {0};
    int64_t seq = 0;
    int rc = net_view_init(&nv, args[0]);
    if (rc == 0)
        rc = net_send(&nv, sender, args[1], args[2], args[3], t, args[4],
                      &seq);
    net_view_free(&nv);
    return rc < 0 ? NULL : PyLong_FromLongLong(seq);
}

static PyObject *
ckernel_send_all_packed(PyObject *Py_UNUSED(module), PyObject *const *args,
                        Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "send_all_packed(net, sender, payload, t, "
                        "include_self)");
        return NULL;
    }
    long sender = PyLong_AsLong(args[1]);
    int64_t t = PyLong_AsLongLong(args[3]);
    if (PyErr_Occurred())
        return NULL;
    int include_self = PyObject_IsTrue(args[4]);
    if (include_self < 0)
        return NULL;
    NetView nv = {0};
    long count = 0;
    int rc = net_view_init(&nv, args[0]);
    if (rc == 0)
        rc = net_send_all(&nv, sender, args[1], args[2], t, args[3],
                          include_self, &count);
    net_view_free(&nv);
    return rc < 0 ? NULL : PyLong_FromLong(count);
}

/* ======================================================================== */
/* layer_omega: repro.sim.stack.Layer._omega                                */
/* ======================================================================== */

/* LayerContext.omega's rule without a Python frame: the step context's
 * fd_value (ctx._base.fd_value) when it is a plain int, a bare Omega
 * sample; anything else -- a composite sample, no detector -- is
 * ctx._base.omega()'s to answer or to refuse. */
static PyObject *
ckernel_layer_omega(PyObject *Py_UNUSED(module), PyObject *ctx)
{
    PyObject *base = PyObject_GetAttr(ctx, s__base);
    if (base == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttr(base, s_fd_value);
    if (value != NULL && !PyLong_CheckExact(value)) {
        Py_DECREF(value);
        value = PyObject_CallMethodNoArgs(base, s_omega);
    }
    Py_DECREF(base);
    return value;
}

static PyMethodDef ckernel_functions[] = {
    {"send_packed", (PyCFunction)(void (*)(void))ckernel_send_packed,
     METH_FASTCALL,
     "send_packed(net, sender, receiver, payload, t)\n--\n\n"
     "CompiledPackedNetwork.send_packed: draw the delay, queue the message\n"
     "in net._pool and fold it into the merge layer; returns its seq."},
    {"send_all_packed", (PyCFunction)(void (*)(void))ckernel_send_all_packed,
     METH_FASTCALL,
     "send_all_packed(net, sender, payload, t, include_self)\n--\n\n"
     "CompiledPackedNetwork.send_all_packed: one batched broadcast pass,\n"
     "the same draws in the same order as n sends; returns the count."},
    {"stable_hash", (PyCFunction)(void (*)(void))ckernel_stable_hash,
     METH_FASTCALL,
     "stable_hash($module, /, *parts)\n--\n\n"
     "A deterministic 63-bit hash of the given parts: FNV-1a over the\n"
     "bytes of repr(part).encode() for every part, bit-identical to the\n"
     "Python body in repro.sim.types."},
    {"block_permutation",
     (PyCFunction)(void (*)(void))ckernel_block_permutation, METH_FASTCALL,
     "block_permutation($module, seed, block, n, /)\n--\n\n"
     "The random scheduler's schedule of block `block`: a Fisher-Yates\n"
     "shuffle of range(n) driven by a splitmix64 mixer keyed on seed and\n"
     "block mod 2**64, bit-identical to the Python body in repro.sim.types."},
    {"draw_unit", (PyCFunction)(void (*)(void))ckernel_draw_unit,
     METH_FASTCALL,
     "draw_unit($module, tag, seed, /, *words)\n--\n\n"
     "A float in (0, 1], pure in (tag, seed, *words): a splitmix64 mixer\n"
     "keyed on every word mod 2**64, bit-identical to the Python body in\n"
     "repro.sim.types."},
    {"draw_below", (PyCFunction)(void (*)(void))ckernel_draw_below,
     METH_FASTCALL,
     "draw_below($module, bound, tag, seed, /, *words)\n--\n\n"
     "An int in range(bound) by multiply-shift over the same key as\n"
     "draw_unit, bit-identical to the Python body in repro.sim.types."},
    {"layer_omega", (PyCFunction)ckernel_layer_omega, METH_O,
     "layer_omega($module, ctx, /)\n--\n\n"
     "Layer._omega: the step's Omega output as LayerContext.omega reads\n"
     "it -- ctx._base.fd_value when it is an int, else ctx._base.omega()."},
    {"run_loop", (PyCFunction)(void (*)(void))ckernel_run_loop,
     METH_FASTCALL,
     "run_loop(sim, t_end, store, metrics=None)\n--\n\n"
     "Run the event engine to t_end in C, under round-robin or random\n"
     "scheduling, calling back into Python only for process handlers,\n"
     "detector queries, the delay model, idle-span accounting that the\n"
     "loop does not fill into the store itself, and step observers.\n"
     "`metrics` is the RunMetrics of a leading MetricsRecorder, whose\n"
     "counts the loop folds itself (added in when it returns or fails).\n"
     "Byte-identical to kernel.run_fused_rr /\n"
     "Simulation._advance_event_random."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "Compiled storage backend and fused tick loop for the packed "
             "sim kernel",
    .m_size = -1,
    .m_methods = ckernel_functions,
};

static int
intern_names(void)
{
#define INTERN(var, text)                                                   \
    do {                                                                    \
        var = PyUnicode_InternFromString(text);                             \
        if (var == NULL)                                                    \
            return -1;                                                      \
    } while (0)
    INTERN(s_network, "network");
    INTERN(s_processes, "processes");
    INTERN(s__ctx, "_ctx");
    INTERN(s_detector, "detector");
    INTERN(s_query, "query");
    INTERN(s_failure_pattern, "failure_pattern");
    INTERN(s_crash_times, "crash_times");
    INTERN(s__skip_span_rr, "_skip_span_rr");
    INTERN(s__local_event, "_local_event");
    INTERN(s__next_timeout, "_next_timeout");
    INTERN(s_timeout_intervals, "timeout_intervals");
    INTERN(s__inputs, "_inputs");
    INTERN(s__started, "_started");
    INTERN(s_message_batch, "message_batch");
    INTERN(s__step_observers, "_step_observers");
    INTERN(s_run, "run");
    INTERN(s__clock, "_clock");
    INTERN(s_time, "time");
    INTERN(s_pid, "pid");
    INTERN(s_fd_value, "fd_value");
    INTERN(s__fd_settle, "_fd_settle");
    INTERN(s__outbox, "_outbox");
    INTERN(s__outputs, "_outputs");
    INTERN(s__log, "_log");
    INTERN(s_on_start, "on_start");
    INTERN(s_on_input, "on_input");
    INTERN(s_on_message, "on_message");
    INTERN(s_on_timeout, "on_timeout");
    INTERN(s_on_step_raw, "on_step_raw");
    INTERN(s__next_at, "_next_at");
    INTERN(s__pending, "_pending");
    INTERN(s_delay_model, "delay_model");
    INTERN(s_delay, "delay");
    INTERN(s_delay_profile, "delay_profile");
    INTERN(s__counts, "_counts");
    INTERN(s__pool, "_pool");
    INTERN(s_end_time, "end_time");
    INTERN(s_input_history, "input_history");
    INTERN(s_output_history, "output_history");
    INTERN(s__index, "_index");
    INTERN(s__time_col, "_time");
    INTERN(s__pid_col, "_pid");
    INTERN(s__fd, "_fd");
    INTERN(s__msg_sender, "_msg_sender");
    INTERN(s__msg_payload, "_msg_payload");
    INTERN(s__msg_send_time, "_msg_send_time");
    INTERN(s__timeout, "_timeout");
    INTERN(s__sent, "_sent");
    INTERN(s__received, "_received");
    INTERN(s__intern_fd, "_intern_fd");
    INTERN(s__log_observers, "_log_observers");
    INTERN(s_on_log, "on_log");
    INTERN(s_scheduling, "scheduling");
    INTERN(s_seed, "seed");
    INTERN(s_metrics, "metrics");
    INTERN(s_idle_ticks_skipped, "idle_ticks_skipped");
    INTERN(s__idle_step_observers, "_idle_step_observers");
    INTERN(s__materialize_idle, "_materialize_idle");
    INTERN(s_frombytes, "frombytes");
    INTERN(s_steps, "steps");
    INTERN(s_steps_by_pid, "steps_by_pid");
    INTERN(s_messages_sent, "messages_sent");
    INTERN(s_messages_received, "messages_received");
    INTERN(s_timeouts_fired, "timeouts_fired");
    INTERN(s_inputs, "inputs");
    INTERN(s_outputs, "outputs");
    INTERN(s__dispatch_plan, "_dispatch_plan");
    INTERN(s__base, "_base");
    INTERN(s_omega, "omega");
#undef INTERN
    return 0;
}

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&PoolType) < 0)
        return NULL;
    if (intern_names() < 0)
        return NULL;
    PyObject *heapq_mod = PyImport_ImportModule("heapq");
    if (heapq_mod == NULL)
        return NULL;
    g_heappop = PyObject_GetAttrString(heapq_mod, "heappop");
    Py_DECREF(heapq_mod);
    if (g_heappop == NULL)
        return NULL;
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&PoolType);
    if (PyModule_AddObject(module, "Pool", (PyObject *)&PoolType) < 0) {
        Py_DECREF(&PoolType);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "SOURCE_DIGEST",
                                   SOURCE_DIGEST) < 0
        || PyModule_AddIntConstant(module, "STAGE_ROWS", STAGE_ROWS) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
