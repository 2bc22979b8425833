/* Packed struct-of-arrays envelope pool, the send path and the fused tick
 * loop of the sim kernel, and the counter-based draw hash.
 *
 * Three layers of the kernel live here (stable_hash, which repro.sim.types
 * binds in place of its Python body, has its own section near the end):
 *
 * 1. The storage layer of the data plane: the slot columns (deliver_at,
 *    seq, sender, send_time, payload), the free list, and the
 *    per-receiver shard heaps ordered by (deliver_at, seq).  The merge
 *    layer -- `_next_at`, the global horizon heap, live/pending counters
 *    -- stays plain Python state on the CompiledPackedNetwork (kernel.py)
 *    so every kernel presents identical state to the event engine; the
 *    code here updates it in place.
 *
 * 2. The send side (send_packed / send_all_packed): delay draw through
 *    the network's delay model -- a user object, the one Python call --
 *    the delay, profile-length and sequence checks of PackedNetwork with
 *    the same exceptions, the pool push and the merge-layer update.  One
 *    implementation behind CompiledPackedNetwork's four send methods and
 *    run_loop's outbox expansion.
 *
 * 3. run_loop(sim, t_end, store): the event engine's tick loop, hosted in
 *    C for the no-observer / raw-observer fast path
 *    (kernel="compiled-loop"), under either schedule: round-robin (the
 *    loop of kernel.run_fused_rr) or seeded random (the loop of
 *    Simulation._advance_event_random; there is no Python fused twin).
 *    The loop owns the due-check, the shard pops, timeout firing, the
 *    handler dispatch trampoline, outbox expansion through (2), the
 *    local-index refresh, the small-n scan next-event query and, under
 *    random scheduling, the block permutations and the walk of the block
 *    an event falls in; it calls back into Python only for process
 *    handlers, the delay model, idle-span accounting (`_skip_span_rr` /
 *    `_skip_span_random`), the heap-backed next-event query, and
 *    raw-capable observers.  Every mutation mirrors the Python loop's
 *    order of effects so run records, counters and schedule state stay
 *    byte-identical, on the failure paths too (pinned by
 *    tests/test_kernel.py and tests/test_kernel_stateful.py).
 *
 * Invariants shared with the pure-Python PackedNetwork:
 *   - seq fits in 40 bits, slot index in 24 (both enforced here on the
 *     send path; Pool.push trusts its caller for seq).
 *   - deliver_at < 2**63 always (NEVER is 2**62; the send path refuses a
 *     delay that would overflow), so plain int64 comparisons order the
 *     heap.
 *   - pop_due() reports the receiver's next head deliver_at (or -1) so
 *     the Python side can maintain its horizon index without a peek
 *     round-trip.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* sha256 of this file as setup.py read it, exported as
 * _ckernel.SOURCE_DIGEST: repro/sim/_compiled.py refuses a build whose
 * digest differs from the _ckernel.c lying beside it (a stale .so). */
#ifndef SOURCE_DIGEST
#error "build through setup.py, which defines SOURCE_DIGEST"
#endif

#define SLOT_LIMIT (1 << 24)

/* repro.sim.types.NEVER == 2**62: the sentinel delivery time of messages
 * that never arrive (dropped links, partitions).  Shared with the Python
 * merge layer's live-pending accounting. */
#define NEVER_I64 (((int64_t)1) << 62)

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

static int
shard_push(PoolObject *self, Shard *shard, int32_t slot)
{
    if (shard->len == shard->cap) {
        Py_ssize_t new_cap = shard->cap ? shard->cap * 2 : 8;
        int32_t *items = PyMem_Realloc(shard->items,
                                       new_cap * sizeof(int32_t));
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        shard->items = items;
        shard->cap = new_cap;
    }
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
    return 0;
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
    Py_ssize_t new_cap = self->cap ? self->cap : 64;
    while (new_cap < want)
        new_cap *= 2;
    if (new_cap > SLOT_LIMIT)
        new_cap = SLOT_LIMIT;
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

static int32_t
pool_alloc_slot(PoolObject *self)
{
    if (self->free_top > 0)
        return self->free_stack[--self->free_top];
    if (self->used == self->cap && pool_reserve(self, self->used + 1) < 0)
        return -1;
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

static PyObject *
Pool_push(PoolObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "push(receiver, deliver_at, seq, sender, send_time, "
                        "payload)");
        return NULL;
    }
    Py_ssize_t receiver = PyLong_AsSsize_t(args[0]);
    int64_t deliver_at = PyLong_AsLongLong(args[1]);
    int64_t seq = PyLong_AsLongLong(args[2]);
    long sender = PyLong_AsLong(args[3]);
    int64_t send_time = PyLong_AsLongLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (receiver < 0 || receiver >= self->n) {
        PyErr_Format(PyExc_IndexError, "receiver %zd out of range", receiver);
        return NULL;
    }
    int32_t slot = pool_alloc_slot(self);
    if (slot < 0)
        return NULL;
    pool_fill_slot(self, slot, deliver_at, seq, (int32_t)sender, send_time,
                   args[5]);
    if (shard_push(self, &self->shards[receiver], slot) < 0) {
        /* roll the slot back onto the free list */
        Py_CLEAR(self->col_payload[slot]);
        self->free_stack[self->free_top++] = slot;
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Pool_push_many(PoolObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "push_many(sender, send_time, seq0, receivers, "
                        "deliver_ats, payload)");
        return NULL;
    }
    long sender = PyLong_AsLong(args[0]);
    int64_t send_time = PyLong_AsLongLong(args[1]);
    int64_t seq0 = PyLong_AsLongLong(args[2]);
    if (PyErr_Occurred())
        return NULL;
    PyObject *receivers = PySequence_Fast(args[3], "receivers must be a "
                                          "sequence");
    if (receivers == NULL)
        return NULL;
    PyObject *deliver_ats = PySequence_Fast(args[4], "deliver_ats must be a "
                                            "sequence");
    if (deliver_ats == NULL) {
        Py_DECREF(receivers);
        return NULL;
    }
    Py_ssize_t count = PySequence_Fast_GET_SIZE(receivers);
    if (PySequence_Fast_GET_SIZE(deliver_ats) != count) {
        PyErr_SetString(PyExc_ValueError,
                        "receivers and deliver_ats differ in length");
        goto fail;
    }
    PyObject **recv_items = PySequence_Fast_ITEMS(receivers);
    PyObject **at_items = PySequence_Fast_ITEMS(deliver_ats);
    PyObject *payload = args[5];
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t receiver = PyLong_AsSsize_t(recv_items[i]);
        int64_t deliver_at = PyLong_AsLongLong(at_items[i]);
        if (PyErr_Occurred())
            goto fail;
        if (receiver < 0 || receiver >= self->n) {
            PyErr_Format(PyExc_IndexError, "receiver %zd out of range",
                         receiver);
            goto fail;
        }
        int32_t slot = pool_alloc_slot(self);
        if (slot < 0)
            goto fail;
        pool_fill_slot(self, slot, deliver_at, seq0 + i, (int32_t)sender,
                       send_time, payload);
        if (shard_push(self, &self->shards[receiver], slot) < 0) {
            Py_CLEAR(self->col_payload[slot]);
            self->free_stack[self->free_top++] = slot;
            goto fail;
        }
    }
    Py_DECREF(receivers);
    Py_DECREF(deliver_ats);
    Py_RETURN_NONE;
fail:
    Py_DECREF(receivers);
    Py_DECREF(deliver_ats);
    return NULL;
}

static PyObject *
Pool_pop_due(PoolObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "pop_due(receiver, t)");
        return NULL;
    }
    Py_ssize_t receiver = PyLong_AsSsize_t(args[0]);
    int64_t t = PyLong_AsLongLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    if (receiver < 0 || receiver >= self->n) {
        PyErr_Format(PyExc_IndexError, "receiver %zd out of range", receiver);
        return NULL;
    }
    Shard *shard = &self->shards[receiver];
    if (shard->len == 0)
        Py_RETURN_NONE;
    int32_t head = shard->items[0];
    if (self->col_deliver[head] > t)
        Py_RETURN_NONE;
    int32_t slot = shard_pop(self, shard);
    int64_t new_head = shard->len ? self->col_deliver[shard->items[0]] : -1;
    PyObject *payload = self->col_payload[slot];  /* steal the slot's ref */
    self->col_payload[slot] = NULL;
    self->free_stack[self->free_top++] = slot;
    PyObject *result = Py_BuildValue(
        "LLlLNL",
        (long long)self->col_deliver[slot],
        (long long)self->col_seq[slot],
        (long)self->col_sender[slot],
        (long long)self->col_send_time[slot],
        payload,
        (long long)new_head);
    if (result == NULL)
        Py_DECREF(payload);
    return result;
}

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
    PyObject *items = PyList_New(0);
    if (items == NULL)
        return NULL;
    Shard *shard = &self->shards[receiver];
    long live_drop = 0;
    while (shard->len > 0 && PyList_GET_SIZE(items) < limit) {
        int32_t head = shard->items[0];
        int64_t deliver_at = self->col_deliver[head];
        if (deliver_at > t)
            break;
        int32_t slot = shard_pop(self, shard);
        PyObject *payload = self->col_payload[slot];  /* steal the ref */
        self->col_payload[slot] = NULL;
        self->free_stack[self->free_top++] = slot;
        if (deliver_at < NEVER_I64)
            live_drop++;
        PyObject *item = build_msg_tuple(
            deliver_at, self->col_seq[slot], (long)self->col_sender[slot],
            self->col_send_time[slot], payload);
        if (item == NULL) {
            Py_DECREF(items);
            return NULL;
        }
        int rc = PyList_Append(items, item);
        Py_DECREF(item);
        if (rc < 0) {
            Py_DECREF(items);
            return NULL;
        }
    }
    int64_t new_head =
        shard->len > 0 ? self->col_deliver[shard->items[0]] : -1;
    return Py_BuildValue("NLl", items, (long long)new_head, live_drop);
}

static PyObject *
Pool_peek(PoolObject *self, PyObject *arg)
{
    Py_ssize_t receiver = PyLong_AsSsize_t(arg);
    if (PyErr_Occurred())
        return NULL;
    if (receiver < 0 || receiver >= self->n) {
        PyErr_Format(PyExc_IndexError, "receiver %zd out of range", receiver);
        return NULL;
    }
    Shard *shard = &self->shards[receiver];
    if (shard->len == 0) {
        PyErr_Format(PyExc_IndexError, "shard %zd is empty", receiver);
        return NULL;
    }
    int32_t slot = shard->items[0];
    return Py_BuildValue(
        "LLlLO",
        (long long)self->col_deliver[slot],
        (long long)self->col_seq[slot],
        (long)self->col_sender[slot],
        (long long)self->col_send_time[slot],
        self->col_payload[slot]);
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
    {"push", (PyCFunction)(void (*)(void))Pool_push, METH_FASTCALL,
     "push(receiver, deliver_at, seq, sender, send_time, payload)"},
    {"push_many", (PyCFunction)(void (*)(void))Pool_push_many, METH_FASTCALL,
     "push_many(sender, send_time, seq0, receivers, deliver_ats, payload)"},
    {"pop_due", (PyCFunction)(void (*)(void))Pool_pop_due, METH_FASTCALL,
     "pop_due(receiver, t) -> None | (deliver_at, seq, sender, send_time, "
     "payload, new_head)"},
    {"pop_due_batch", (PyCFunction)(void (*)(void))Pool_pop_due_batch,
     METH_FASTCALL,
     "pop_due_batch(receiver, t, limit) -> ([(deliver_at, seq, sender, "
     "send_time, payload), ...], new_head, live_drop)"},
    {"peek", (PyCFunction)Pool_peek, METH_O,
     "peek(receiver) -> (deliver_at, seq, sender, send_time, payload)"},
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
static PyObject *s_network, *s_n, *s_processes, *s__ctx, *s_detector,
    *s_query, *s_failure_pattern, *s_crash_times, *s__next_event_query,
    *s__skip_span_rr, *s__local_event, *s__local_horizon, *s__local_cap,
    *s__next_timeout, *s_timeout_intervals, *s__inputs, *s__started,
    *s_message_batch, *s__raw_step_observers, *s_run, *s__scan_cutover,
    *s__step_index, *s_time, *s_last_live_tick, *s_pid, *s_fd_value,
    *s__outbox, *s__outputs, *s__log, *s_on_start, *s_on_input,
    *s_on_message, *s_on_timeout, *s_on_step_raw, *s__next_at, *s__pending,
    *s__live, *s__dead, *s__horizon, *s__horizon_cap, *s__compact_horizon,
    *s_delay_model, *s_delay, *s_delay_profile, *s__next_seq,
    *s_sent_count, *s__pool, *s_delivered_count,
    *s_live_pending, *s_end_time, *s_input_history, *s_output_history,
    *s__index, *s__time_col, *s__pid_col, *s__fd, *s__msg_sender,
    *s__msg_payload, *s__msg_send_time, *s__timeout, *s__sent,
    *s__received, *s__intern_fd, *s_append, *s__log_observers, *s_on_log,
    *s_scheduling, *s__skip_span_random, *s_seed, *s__permutation,
    *s__perm_block, *s_metrics, *s_idle_ticks_skipped, *s_getrandbits,
    *s_block_permutation;

/* heapq entry points and the `_random.Random` type, resolved at module
 * init */
static PyObject *g_heappush, *g_heappop, *g_heapify, *g_random_type;

static PyObject *ckernel_stable_hash(PyObject *module, PyObject *const *args,
                                     Py_ssize_t nargs);

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

/* list[i] = v (new int; steals like PyList_SetItem) */
static int
list_set_i64(PyObject *list, Py_ssize_t i, int64_t v)
{
    PyObject *boxed = PyLong_FromLongLong(v);
    if (boxed == NULL)
        return -1;
    return PyList_SetItem(list, i, boxed);
}

/* list[i] += delta (list of plain ints) */
static int
list_add_i64(PyObject *list, Py_ssize_t i, int64_t delta)
{
    int64_t v = PyLong_AsLongLong(PyList_GET_ITEM(list, i));
    if (v == -1 && PyErr_Occurred())
        return -1;
    return list_set_i64(list, i, v + delta);
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

/* heapq.heappush(heap, (key, pid_obj)) */
static int
heap_push_pair(PyObject *heap, int64_t key, PyObject *pid_obj)
{
    PyObject *key_obj = PyLong_FromLongLong(key);
    if (key_obj == NULL)
        return -1;
    PyObject *pair = PyTuple_Pack(2, key_obj, pid_obj);
    Py_DECREF(key_obj);
    if (pair == NULL)
        return -1;
    PyObject *r = call2(g_heappush, heap, pair);
    Py_DECREF(pair);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ======================================================================== */
/* The send side of a CompiledPackedNetwork                                  */
/* ======================================================================== */

/* 40-bit global send sequence (kernel.py's _SEQ_LIMIT): seq must stay
 * orderable inside PackedNetwork's packed shard keys, and the two pools
 * must exhaust it at the same send. */
#define SEQ_LIMIT (((int64_t)1) << 40)

/* A CompiledPackedNetwork as the C send and pop paths see it: the pool
 * plus the merge layer (per-receiver lists, the dead set, the lazy horizon
 * heap), which stays plain Python state on the network so the event
 * engine reads the same `_next_at` / `_horizon` on every kernel.  The
 * network-wide scalars (`sent_count`, `live_pending`, `_next_seq`) and
 * `delay_model` are read through `net` at each use.  All references are
 * owned; the lists are verified to be lists of length pool->n. */
typedef struct {
    PyObject *net, *pool_obj;
    PoolObject *pool;                    /* borrowed view of pool_obj */
    PyObject *next_at, *pending, *live, *dead, *horizon, *compact_horizon;
    Py_ssize_t horizon_cap;
} NetView;

static void
net_view_free(NetView *nv)
{
    Py_CLEAR(nv->net);
    Py_CLEAR(nv->pool_obj);
    Py_CLEAR(nv->next_at);
    Py_CLEAR(nv->pending);
    Py_CLEAR(nv->live);
    Py_CLEAR(nv->dead);
    Py_CLEAR(nv->horizon);
    Py_CLEAR(nv->compact_horizon);
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
    if ((nv->next_at = PyObject_GetAttr(net, s__next_at)) == NULL
        || (nv->pending = PyObject_GetAttr(net, s__pending)) == NULL
        || (nv->live = PyObject_GetAttr(net, s__live)) == NULL
        || (nv->dead = PyObject_GetAttr(net, s__dead)) == NULL
        || (nv->horizon = PyObject_GetAttr(net, s__horizon)) == NULL
        || (nv->compact_horizon =
                PyObject_GetAttr(net, s__compact_horizon)) == NULL)
        return -1;
    int64_t cap;
    if (get_i64_attr(net, s__horizon_cap, &cap) < 0)
        return -1;
    nv->horizon_cap = (Py_ssize_t)cap;
    Py_ssize_t n = nv->pool->n;
    if (!PyList_Check(nv->next_at) || PyList_GET_SIZE(nv->next_at) != n
        || !PyList_Check(nv->pending) || PyList_GET_SIZE(nv->pending) != n
        || !PyList_Check(nv->live) || PyList_GET_SIZE(nv->live) != n
        || !PyList_Check(nv->horizon) || !PyAnySet_Check(nv->dead)) {
        PyErr_SetString(PyExc_TypeError,
                        "network merge layer is not the per-receiver "
                        "lists / set / heap the pool was built for");
        return -1;
    }
    return 0;
}

/* t + delay for one drawn delay, with DelayModel's contract checked the
 * way PackedNetwork checks it (ValueError on delay < 1). */
static int
deliver_time(PyObject *delay_obj, int64_t t, int64_t *out)
{
    int64_t delay = PyLong_AsLongLong(delay_obj);
    if (delay == -1 && PyErr_Occurred())
        return -1;
    if (delay < 1) {
        PyErr_Format(PyExc_ValueError,
                     "delay model produced non-positive delay %S", delay_obj);
        return -1;
    }
    if (delay > INT64_MAX - t) {
        PyErr_SetString(PyExc_OverflowError,
                        "delivery time does not fit in 64 bits");
        return -1;
    }
    *out = t + delay;
    return 0;
}

/* Queue one message: the pool push plus the merge-layer update of
 * PackedNetwork.send_packed on the per-receiver state, in its order of
 * effects (pending, live, then the next-delivery index with its compaction
 * check before the horizon push).  The two network-wide counters are the caller's: a live
 * message to a receiver not marked dead bumps *live_gain, and the caller
 * counts what it queued; net_commit writes both back. */
static int
net_queue(NetView *nv, Py_ssize_t receiver, int64_t deliver_at, int64_t seq,
          long sender, int64_t t, PyObject *payload, int64_t *live_gain)
{
    PoolObject *pool = nv->pool;
    if (receiver < 0 || receiver >= pool->n) {
        PyErr_Format(PyExc_IndexError, "receiver %zd out of range", receiver);
        return -1;
    }
    int32_t slot = pool_alloc_slot(pool);
    if (slot < 0)
        return -1;
    pool_fill_slot(pool, slot, deliver_at, seq, (int32_t)sender, t, payload);
    if (shard_push(pool, &pool->shards[receiver], slot) < 0) {
        Py_CLEAR(pool->col_payload[slot]);
        pool->free_stack[pool->free_top++] = slot;
        return -1;
    }
    if (list_add_i64(nv->pending, receiver, 1) < 0)
        return -1;
    PyObject *recv_obj = PyLong_FromSsize_t(receiver);
    if (recv_obj == NULL)
        return -1;
    int rc = -1;
    if (deliver_at < NEVER_I64) {
        if (list_add_i64(nv->live, receiver, 1) < 0)
            goto done;
        int is_dead = PySet_Contains(nv->dead, recv_obj);
        if (is_dead < 0)
            goto done;
        if (!is_dead)
            *live_gain += 1;
    }
    PyObject *head_obj = PyList_GET_ITEM(nv->next_at, receiver);
    int lowers = head_obj == Py_None;
    if (!lowers) {
        int64_t head = PyLong_AsLongLong(head_obj);
        if (head == -1 && PyErr_Occurred())
            goto done;
        lowers = deliver_at < head;
    }
    if (lowers) {
        if (list_set_i64(nv->next_at, receiver, deliver_at) < 0)
            goto done;
        if (PyList_GET_SIZE(nv->horizon) > nv->horizon_cap) {
            PyObject *r = PyObject_CallNoArgs(nv->compact_horizon);
            if (r == NULL)
                goto done;
            Py_DECREF(r);
        }
        if (heap_push_pair(nv->horizon, deliver_at, recv_obj) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(recv_obj);
    return rc;
}

/* Write back what one send call queued: `_next_seq`, `sent_count`,
 * `live_pending`.  Also runs with an exception pending (a delay model
 * raising mid-broadcast on the per-receiver path), which it preserves, so
 * the counters always describe exactly the messages in the pool. */
static int
net_commit(NetView *nv, int64_t next_seq, int64_t sent, int64_t live_gain)
{
    if (sent == 0)
        return 0;
    PyObject *exc_type, *exc_value, *exc_tb;
    PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
    int rc = set_i64_attr(nv->net, s__next_seq, next_seq);
    if (rc == 0)
        rc = add_i64_attr(nv->net, s_sent_count, sent);
    if (rc == 0 && live_gain)
        rc = add_i64_attr(nv->net, s_live_pending, live_gain);
    if (exc_type != NULL) {
        PyErr_Clear();
        PyErr_Restore(exc_type, exc_value, exc_tb);
    }
    return rc;
}

/* collect.append((deliver_at, seq, sender, receiver, payload, t)): the
 * fields of the Envelope view the compat send()/send_all() hand back. */
static int
collect_row(PyObject *collect, int64_t deliver_at, int64_t seq, long sender,
            Py_ssize_t receiver, PyObject *payload, int64_t t)
{
    PyObject *row = Py_BuildValue("LLlnOL", (long long)deliver_at,
                                  (long long)seq, sender, receiver, payload,
                                  (long long)t);
    if (row == NULL)
        return -1;
    int rc = PyList_Append(collect, row);
    Py_DECREF(row);
    return rc;
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
 * check it and the sequence space, queue.  `collect`, when not NULL, is a
 * list that receives the message's Envelope fields. */
static int
net_send(NetView *nv, long sender, PyObject *sender_obj, PyObject *recv_obj,
         PyObject *payload, int64_t t, PyObject *t_obj, PyObject *collect,
         int64_t *seq_out)
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
    int64_t seq, live_gain = 0;
    if (get_i64_attr(nv->net, s__next_seq, &seq) < 0)
        return -1;
    if (seq >= SEQ_LIMIT) {
        PyErr_SetString(PyExc_OverflowError,
                        "packed pool exhausted the 40-bit send sequence");
        return -1;
    }
    if (net_queue(nv, receiver, deliver_at, seq, sender, t, payload,
                  &live_gain) < 0)
        return -1;
    rc = collect == NULL
        ? 0 : collect_row(collect, deliver_at, seq, sender, receiver,
                          payload, t);
    if (net_commit(nv, seq + 1, 1, live_gain) < 0)
        return -1;
    *seq_out = seq;
    return rc;
}

/* One broadcast (PackedNetwork._send_all_common): the same draws, in the
 * same receiver order, as n point-to-point sends.  A model with the
 * vectorized `delay_profile` hook is asked once and every delay, the
 * profile's length and the sequence space are validated before anything
 * queues; without the hook the model is asked per receiver and the
 * messages queue as they are drawn, so one raising mid-broadcast leaves
 * the network consistent with what was sent. */
static int
net_send_all(NetView *nv, long sender, PyObject *sender_obj,
             PyObject *payload, int64_t t, PyObject *t_obj, int include_self,
             PyObject *collect, long *count_out)
{
    Py_ssize_t n = nv->pool->n;
    Py_ssize_t count = (include_self || sender < 0 || sender >= n) ? n : n - 1;
    int64_t stack_times[16];
    int64_t *times = NULL;               /* deliver_at per position */
    PyObject *model = NULL, *profile = NULL, *receivers = NULL;
    int64_t seq0 = 0, sent = 0, live_gain = 0;
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
        PyObject *delays = call3(profile, sender_obj, t_obj, receivers);
        if (delays == NULL)
            goto done;
        PyObject *fast = PySequence_Fast(
            delays, "delay profile must return a sequence of delays");
        Py_DECREF(delays);
        if (fast == NULL)
            goto done;
        if (PySequence_Fast_GET_SIZE(fast) != count) {
            PyErr_Format(PyExc_ValueError,
                         "delay profile returned %zd delays for %zd "
                         "receivers",
                         PySequence_Fast_GET_SIZE(fast), count);
            Py_DECREF(fast);
            goto done;
        }
        times = count <= 16
            ? stack_times : PyMem_Malloc(count * sizeof(int64_t));
        if (times == NULL) {
            Py_DECREF(fast);
            PyErr_NoMemory();
            goto done;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            if (deliver_time(PySequence_Fast_GET_ITEM(fast, i), t,
                             &times[i]) < 0) {
                Py_DECREF(fast);
                goto done;
            }
        }
        Py_DECREF(fast);
    }
    if (get_i64_attr(nv->net, s__next_seq, &seq0) < 0)
        goto done;
    if (times != NULL && seq0 + count > SEQ_LIMIT) {
        PyErr_SetString(PyExc_OverflowError,
                        "packed pool exhausted the 40-bit send sequence");
        goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *recv_obj = PyList_GET_ITEM(receivers, i);
        Py_ssize_t receiver = PyLong_AsSsize_t(recv_obj);
        int64_t deliver_at = 0;
        if (times != NULL) {
            deliver_at = times[i];
        } else {
            if (draw_deliver_time(model, sender_obj, recv_obj, t_obj, t,
                                  &deliver_at) < 0)
                goto done;
            if (seq0 + sent >= SEQ_LIMIT) {
                PyErr_SetString(
                    PyExc_OverflowError,
                    "packed pool exhausted the 40-bit send sequence");
                goto done;
            }
        }
        if (net_queue(nv, receiver, deliver_at, seq0 + sent, sender, t,
                      payload, &live_gain) < 0)
            goto done;
        sent += 1;
        if (collect != NULL
            && collect_row(collect, deliver_at, seq0 + sent - 1, sender,
                           receiver, payload, t) < 0)
            goto done;
    }
    rc = 0;
done:
    if (net_commit(nv, seq0 + sent, sent, live_gain) < 0)
        rc = -1;
    if (times != stack_times)
        PyMem_Free(times);
    Py_XDECREF(receivers);
    Py_XDECREF(profile);
    Py_DECREF(model);
    *count_out = (long)sent;
    return rc;
}

/* history.setdefault(pid, []).extend((t, v) for v in values) */
static int
history_extend(PyObject *history, PyObject *pid_obj, PyObject *t_obj,
               PyObject *values)
{
    PyObject *bucket = PyDict_GetItemWithError(history, pid_obj);
    PyObject *owned = NULL;
    if (bucket == NULL) {
        if (PyErr_Occurred())
            return -1;
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
 * delivered / pending counts and the receiver's next-delivery time with its
 * horizon entry (the tail of PackedNetwork.pop_deliverable_batch). */
static int
fold_pops(NetView *nv, long pid, PyObject *pid_obj, long received)
{
    Shard *shard = &nv->pool->shards[pid];
    if (add_i64_attr(nv->net, s_delivered_count, received) < 0)
        return -1;
    if (list_add_i64(nv->pending, pid, -received) < 0)
        return -1;
    if (shard->len == 0) {
        Py_INCREF(Py_None);
        return PyList_SetItem(nv->next_at, pid, Py_None);
    }
    int64_t new_head = nv->pool->col_deliver[shard->items[0]];
    if (list_set_i64(nv->next_at, pid, new_head) < 0)
        return -1;
    if (PyList_GET_SIZE(nv->horizon) > nv->horizon_cap) {
        PyObject *r = PyObject_CallNoArgs(nv->compact_horizon);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    return heap_push_pair(nv->horizon, new_head, pid_obj);
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

/* Everything the loop reads, extracted once per run_loop call.  Python
 * objects are owned references unless marked borrowed; the int64 arrays
 * mirror a Python list that only this loop mutates (next_timeout —
 * written through on every change), or that are immutable for the run's
 * duration (crash times, intervals). */
typedef struct {
    PyObject *sim;                       /* borrowed */
    NetView nv;                          /* sim.network's merge layer + pool */
    PyObject *ctx, *processes, *started, *inputs_by_pid;
    PyObject *detector_query;            /* NULL when no detector */
    PyObject *query_next, *skip_span;
    PyObject *local_event, *local_horizon;
    PyObject *next_timeout_list;
    PyObject *raw_obs, *run;
    PyObject *crash_times, *intervals;   /* read into crash_at / interval */
    PyObject *store;                     /* borrowed; NULL without store */
    PyObject *st_append[10];             /* bound column .append methods */
    PyObject *st_index_col, *intern_fd;
    PyObject *sparse_inputs, *sparse_outputs;
    PyObject *input_history, *output_history;
    PyObject **pid_objs;                 /* n owned ints 0..n-1 */
    PyObject **on_message_m, **on_timeout_m; /* n owned bound methods */
    PyObject **raw_methods;              /* owned bound on_step_raw */
    Py_ssize_t raw_count;
    PyObject **log_methods;              /* owned bound on_log */
    Py_ssize_t log_count;
    int64_t *crash_at;                   /* INT64_MAX = never crashes */
    int64_t *interval, *next_to;
    PyObject *empty_tuple;
    long n;
    int64_t message_batch, scan_cutover;
    Py_ssize_t local_cap;
    int has_crashes, has_store;
    /* scheduling="random" only (see the block comment above loop_perm) */
    int random;
    PyObject *seed;                      /* sim.seed */
    long *perm;                          /* the schedule of block perm_block */
    int64_t perm_block;                  /* -1 = none yet */
    PyObject *rng_seed, *rng_getrandbits; /* of one _random.Random; lazy */
    int64_t idle_acc;                    /* live idle ticks walked, not yet */
    int64_t last_live_acc;               /* ... written through; -1 = none */
} Loop;

static void
loop_free(Loop *L)
{
    net_view_free(&L->nv);
    Py_XDECREF(L->ctx);
    Py_XDECREF(L->processes);
    Py_XDECREF(L->started);
    Py_XDECREF(L->inputs_by_pid);
    Py_XDECREF(L->detector_query);
    Py_XDECREF(L->query_next);
    Py_XDECREF(L->skip_span);
    Py_XDECREF(L->local_event);
    Py_XDECREF(L->local_horizon);
    Py_XDECREF(L->next_timeout_list);
    Py_XDECREF(L->raw_obs);
    Py_XDECREF(L->run);
    Py_XDECREF(L->crash_times);
    Py_XDECREF(L->intervals);
    for (int i = 0; i < 10; i++)
        Py_XDECREF(L->st_append[i]);
    Py_XDECREF(L->st_index_col);
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
    PyMem_Free(L->next_to);
    Py_XDECREF(L->seed);
    Py_XDECREF(L->rng_seed);
    Py_XDECREF(L->rng_getrandbits);
    PyMem_Free(L->perm);
}

/* sim._local_event[p].  Read from the list at every use, not mirrored:
 * Simulation.add_input lowers it, and a handler or observer holding the
 * sim may call that in the middle of a run. */
static inline int
local_event_at(Loop *L, long p, int64_t *out)
{
    int64_t at = PyLong_AsLongLong(PyList_GET_ITEM(L->local_event, p));
    if (at == -1 && PyErr_Occurred())
        return -1;
    *out = at;
    return 0;
}

#define GETA(dst, obj, name)                                                \
    do {                                                                    \
        (dst) = PyObject_GetAttr((obj), (name));                            \
        if ((dst) == NULL)                                                  \
            return -1;                                                      \
    } while (0)

static int
loop_init(Loop *L, PyObject *sim, PyObject *store)
{
    memset(L, 0, sizeof(*L));
    L->sim = sim;
    int64_t tmp;
    if (get_i64_attr(sim, s_n, &tmp) < 0)
        return -1;
    L->n = (long)tmp;
    PyObject *net;
    GETA(net, sim, s_network);
    int r_view = net_view_init(&L->nv, net);
    Py_DECREF(net);
    if (r_view < 0)
        return -1;
    GETA(L->processes, sim, s_processes);
    GETA(L->ctx, sim, s__ctx);
    PyObject *detector;
    GETA(detector, sim, s_detector);
    if (detector != Py_None) {
        L->detector_query = PyObject_GetAttr(detector, s_query);
        Py_DECREF(detector);
        if (L->detector_query == NULL)
            return -1;
    } else {
        Py_DECREF(detector);
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
    GETA(L->query_next, sim, s__next_event_query);
    GETA(L->skip_span, sim,
         L->random ? s__skip_span_random : s__skip_span_rr);
    GETA(L->local_event, sim, s__local_event);
    GETA(L->local_horizon, sim, s__local_horizon);
    GETA(L->next_timeout_list, sim, s__next_timeout);
    GETA(L->inputs_by_pid, sim, s__inputs);
    GETA(L->started, sim, s__started);
    GETA(L->raw_obs, sim, s__raw_step_observers);
    GETA(L->run, sim, s_run);
    GETA(L->intervals, sim, s_timeout_intervals);
    if (get_i64_attr(sim, s__local_cap, &tmp) < 0)
        return -1;
    L->local_cap = (Py_ssize_t)tmp;
    if (get_i64_attr(sim, s_message_batch, &L->message_batch) < 0)
        return -1;
    if (get_i64_attr(sim, s__scan_cutover, &L->scan_cutover) < 0)
        return -1;
    long n = L->n;
    if (!PyList_Check(L->processes) || !PyList_Check(L->local_event)
        || !PyList_Check(L->local_horizon)
        || !PyList_Check(L->next_timeout_list)
        || !PyList_Check(L->inputs_by_pid) || !PyList_Check(L->intervals)) {
        PyErr_SetString(PyExc_TypeError, "run_loop: expected list state");
        return -1;
    }
    if (PyList_GET_SIZE(L->processes) != n
        || PyList_GET_SIZE(L->local_event) != n
        || PyList_GET_SIZE(L->next_timeout_list) != n
        || PyList_GET_SIZE(L->inputs_by_pid) != n
        || PyList_GET_SIZE(L->intervals) != n || L->nv.pool->n != n) {
        PyErr_SetString(PyExc_ValueError,
                        "run_loop: state lists do not match sim.n");
        return -1;
    }
    L->crash_at = PyMem_Malloc(n * sizeof(int64_t));
    L->interval = PyMem_Malloc(n * sizeof(int64_t));
    L->next_to = PyMem_Malloc(n * sizeof(int64_t));
    L->pid_objs = PyMem_Calloc(n, sizeof(PyObject *));
    L->on_message_m = PyMem_Calloc(n, sizeof(PyObject *));
    L->on_timeout_m = PyMem_Calloc(n, sizeof(PyObject *));
    if (L->crash_at == NULL || L->interval == NULL || L->next_to == NULL
        || L->pid_objs == NULL
        || L->on_message_m == NULL || L->on_timeout_m == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (L->random) {
        GETA(L->seed, sim, s_seed);
        L->perm = PyMem_Malloc(n * sizeof(long));
        if (L->perm == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        L->perm_block = -1;
        L->last_live_acc = -1;
    }
    for (long p = 0; p < n; p++)
        L->crash_at[p] = INT64_MAX;
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
    }
    for (long p = 0; p < n; p++) {
        L->interval[p] = PyLong_AsLongLong(PyList_GET_ITEM(L->intervals, p));
        L->next_to[p] =
            PyLong_AsLongLong(PyList_GET_ITEM(L->next_timeout_list, p));
        if (PyErr_Occurred())
            return -1;
        L->pid_objs[p] = PyLong_FromLong(p);
        if (L->pid_objs[p] == NULL)
            return -1;
        PyObject *process = PyList_GET_ITEM(L->processes, p);
        L->on_message_m[p] = PyObject_GetAttr(process, s_on_message);
        if (L->on_message_m[p] == NULL)
            return -1;
        L->on_timeout_m[p] = PyObject_GetAttr(process, s_on_timeout);
        if (L->on_timeout_m[p] == NULL)
            return -1;
    }
    if (store != Py_None) {
        /* single-FullRecorder fast path: append straight into the store */
        L->has_store = 1;
        L->store = store;
        PyObject *col_names[10] = {
            s__index, s__time_col, s__pid_col, s__fd, s__msg_sender,
            s__msg_payload, s__msg_send_time, s__timeout, s__sent,
            s__received,
        };
        GETA(L->st_index_col, store, s__index);
        for (int i = 0; i < 10; i++) {
            PyObject *col = PyObject_GetAttr(store, col_names[i]);
            if (col == NULL)
                return -1;
            L->st_append[i] = PyObject_GetAttr(col, s_append);
            Py_DECREF(col);
            if (L->st_append[i] == NULL)
                return -1;
        }
        GETA(L->intern_fd, store, s__intern_fd);
        GETA(L->sparse_inputs, store, s__inputs);
        GETA(L->sparse_outputs, store, s__outputs);
        GETA(L->input_history, L->run, s_input_history);
        GETA(L->output_history, L->run, s_output_history);
    } else if (L->raw_obs != Py_None) {
        /* generic raw-capable observers: cache their bound methods */
        if (!PyList_Check(L->raw_obs)) {
            PyErr_SetString(PyExc_TypeError,
                            "_raw_step_observers must be a list");
            return -1;
        }
        Py_ssize_t count = PyList_GET_SIZE(L->raw_obs);
        L->raw_methods = PyMem_Calloc(count ? count : 1, sizeof(PyObject *));
        if (L->raw_methods == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            L->raw_methods[i] = PyObject_GetAttr(
                PyList_GET_ITEM(L->raw_obs, i), s_on_step_raw);
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
    L->empty_tuple = PyTuple_New(0);
    if (L->empty_tuple == NULL)
        return -1;
    return 0;
}

/* 1 when `pid` has work due at `t` -- a local event (timeout, input,
 * pending on_start) or a deliverable message -- 0 when not, -1 on error. */
static inline int
pid_due(Loop *L, long pid, int64_t t)
{
    int64_t at;
    if (local_event_at(L, pid, &at) < 0)
        return -1;
    if (at <= t)
        return 1;
    PyObject *head_obj = PyList_GET_ITEM(L->nv.next_at, pid);
    if (head_obj == Py_None)
        return 0;
    int64_t head = PyLong_AsLongLong(head_obj);
    if (head == -1 && PyErr_Occurred())
        return -1;
    return head <= t;
}

/* -- scheduling="random" ------------------------------------------------- */

/* Under random scheduling the process of tick t is slot t % n of the
 * permutation of block t / n, and an idle tick inside the block an event
 * falls in is accounted here, one at a time, as
 * Simulation._advance_event_random_block does: `idle_acc` live idle ticks
 * and the last of them, written through to sim.metrics.idle_ticks_skipped
 * and sim.last_live_tick by loop_flush_idle before every call back into
 * Python and on every exit -- handlers and observers read both mid-run. */
static int
loop_flush_idle(Loop *L)
{
    if (L->idle_acc == 0)
        return 0;
    PyObject *metrics = PyObject_GetAttr(L->sim, s_metrics);
    if (metrics == NULL)
        return -1;
    int rc = add_i64_attr(metrics, s_idle_ticks_skipped, L->idle_acc);
    Py_DECREF(metrics);
    if (rc < 0)
        return -1;
    L->idle_acc = 0;
    int64_t last;
    if (get_i64_attr(L->sim, s_last_live_tick, &last) < 0)
        return -1;
    if (L->last_live_acc > last
        && set_i64_attr(L->sim, s_last_live_tick, L->last_live_acc) < 0)
        return -1;
    L->last_live_acc = -1;
    return 0;
}

/* One draw of random.Random._randbelow_with_getrandbits(m), k = m.bit_length():
 * getrandbits(k) until the value falls below m.  -1 on error. */
static long
rng_below(Loop *L, long m, int k)
{
    PyObject *k_obj = PyLong_FromLong(k);
    if (k_obj == NULL)
        return -1;
    long r;
    do {
        PyObject *drawn = call1(L->rng_getrandbits, k_obj);
        r = drawn == NULL ? -1 : PyLong_AsLong(drawn);
        Py_XDECREF(drawn);
        if (r < 0 && !PyErr_Occurred())
            PyErr_SetString(PyExc_ValueError,
                            "getrandbits returned a negative value");
    } while (r >= m);
    Py_DECREF(k_obj);
    return r;
}

/* L->perm := sim._permutation, the Python side's cached block. */
static int
perm_from_sim(Loop *L)
{
    long n = L->n;
    PyObject *list = PyObject_GetAttr(L->sim, s__permutation);
    if (list == NULL)
        return -1;
    int ok = PyList_Check(list) && PyList_GET_SIZE(list) == n;
    for (long i = 0; ok && i < n; i++) {
        long p = PyLong_AsLong(PyList_GET_ITEM(list, i));
        ok = p >= 0 && p < n;
        L->perm[i] = p;
    }
    Py_DECREF(list);
    if (!ok && !PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError,
                        "sim._permutation is not a permutation of the "
                        "process ids");
    return ok ? 0 : -1;
}

/* L->perm := the schedule permutation of `block`, bit for bit
 * random.Random(stable_hash("block-permutation", seed, block))
 *     .shuffle(list(range(n)))
 * as Simulation._permutation_for_block (the oracle) derives it: one
 * _random.Random -- CPython's own Mersenne Twister -- reseeded per block,
 * and random.shuffle's Fisher-Yates driven through its getrandbits.  The
 * one-block cache is shared with the Python side through
 * sim._permutation / sim._perm_block: a block the span accounting
 * (`_skip_span_random`) just derived is copied, not derived again, and one
 * derived here is written through for it to find. */
static int
loop_perm(Loop *L, int64_t block)
{
    if (block == L->perm_block)
        return 0;
    L->perm_block = -1;
    PyObject *sim = L->sim;
    long n = L->n;
    int64_t cached;
    if (get_i64_attr(sim, s__perm_block, &cached) < 0)
        return -1;
    if (cached == block) {
        if (perm_from_sim(L) < 0)
            return -1;
        L->perm_block = block;
        return 0;
    }
    int rc = -1;
    PyObject *key = NULL, *list = NULL;
    PyObject *block_obj = PyLong_FromLongLong(block);
    if (block_obj == NULL)
        return -1;
    PyObject *parts[3] = {s_block_permutation, L->seed, block_obj};
    key = ckernel_stable_hash(NULL, parts, 3);
    if (key == NULL)
        goto done;
    if (L->rng_seed == NULL) {
        /* first need: the constructor seeds with its argument */
        PyObject *rng = call1(g_random_type, key);
        if (rng == NULL)
            goto done;
        L->rng_seed = PyObject_GetAttr(rng, s_seed);
        L->rng_getrandbits = PyObject_GetAttr(rng, s_getrandbits);
        Py_DECREF(rng);
        if (L->rng_seed == NULL || L->rng_getrandbits == NULL) {
            Py_CLEAR(L->rng_seed);
            goto done;
        }
    } else {
        PyObject *r = call1(L->rng_seed, key);
        if (r == NULL)
            goto done;
        Py_DECREF(r);
    }
    for (long i = 0; i < n; i++)
        L->perm[i] = i;
    int k = 0;
    while ((n >> k) != 0)
        k++;
    for (long i = n - 1; i >= 1; i--) {
        /* j = randbelow(i + 1); k tracks (i + 1).bit_length() */
        if (i + 1 < (1L << (k - 1)))
            k--;
        long j = rng_below(L, i + 1, k);
        if (j < 0)
            goto done;
        long swap = L->perm[i];
        L->perm[i] = L->perm[j];
        L->perm[j] = swap;
    }
    list = PyList_New(n);
    if (list == NULL)
        goto done;
    for (long i = 0; i < n; i++) {
        PyObject *p = L->pid_objs[L->perm[i]];
        Py_INCREF(p);
        PyList_SET_ITEM(list, i, p);
    }
    if (PyObject_SetAttr(sim, s__permutation, list) < 0
        || PyObject_SetAttr(sim, s__perm_block, block_obj) < 0)
        goto done;
    L->perm_block = block;
    rc = 0;
done:
    Py_XDECREF(key);
    Py_XDECREF(list);
    Py_DECREF(block_obj);
    return rc;
}

/* run_loop(sim, t_end, store) — the event engine's tick loop in C.
 *
 * Round-robin: byte-identical to kernel.run_fused_rr over a
 * CompiledPackedNetwork with no send/deliver observers.  Random
 * scheduling: byte-identical to `while sim.time < t_end:
 * sim._advance_event_random(t_end)` at reduced fidelity (nothing
 * materializes idle steps; kernel.fused_runner checks).  Same handler call
 * order, same merge-layer mutations in the same order, same store appends,
 * same exception-time state.  `store` is the single-FullRecorder StepStore
 * (or None); the Python wrapper resolves it before handing off. */
static PyObject *
ckernel_run_loop(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    (void)module;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "run_loop(sim, t_end, store) takes 3 arguments");
        return NULL;
    }
    PyObject *sim = args[0];
    int64_t t_end = PyLong_AsLongLong(args[1]);
    if (t_end == -1 && PyErr_Occurred())
        return NULL;
    Loop loop_state;
    Loop *L = &loop_state;
    if (loop_init(L, sim, args[2]) < 0) {
        loop_free(L);
        return NULL;
    }
    PoolObject *pool = L->nv.pool;
    long n = L->n;
    int64_t t, step_index, run_end_time;
    /* Per-step owned temporaries, function-scoped so step_fail can see
     * them; always NULL outside an executed step. */
    PyObject *t_obj = NULL, *fd_value = NULL, *inputs_t = NULL;
    PyObject *outputs_t = NULL, *first_payload = NULL;
    if (get_i64_attr(sim, s_time, &t) < 0)
        goto fail;
    if (get_i64_attr(sim, s__step_index, &step_index) < 0)
        goto fail;
    if (get_i64_attr(L->run, s_end_time, &run_end_time) < 0)
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
        int due = 0;
        if (pid >= 0 && !(L->has_crashes && t >= L->crash_at[pid])) {
            due = pid_due(L, pid, t);
            if (due < 0)
                goto fail;
        }
        if (due) {
            /* ---- one fused executed step (mirrors run_fused_rr) ---- */
            PyObject *pid_obj = L->pid_objs[pid];
            PyObject *process = PyList_GET_ITEM(L->processes, pid);
            if (loop_flush_idle(L) < 0)
                goto fail;
            if (set_i64_attr(sim, s_time, t + 1) < 0)
                goto fail;
            if (set_i64_attr(sim, s_last_live_tick, t) < 0)
                goto fail;
            t_obj = PyLong_FromLongLong(t);
            if (t_obj == NULL)
                goto step_fail;
            if (L->detector_query != NULL) {
                fd_value = call2(L->detector_query, pid_obj, t_obj);
                if (fd_value == NULL)
                    goto step_fail;
            } else {
                fd_value = Py_None;
                Py_INCREF(fd_value);
            }
            if (PyObject_SetAttr(L->ctx, s_pid, pid_obj) < 0
                || PyObject_SetAttr(L->ctx, s_time, t_obj) < 0
                || PyObject_SetAttr(L->ctx, s_fd_value, fd_value) < 0)
                goto step_fail;
            int was_started = PySet_Contains(L->started, pid_obj);
            if (was_started < 0)
                goto step_fail;
            if (!was_started) {
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
                    int has = peek_input_at(in_q, &at);
                    if (has < 0)
                        break;
                    if (has == 0 || at > t)
                        break;
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
            PyObject *head_obj = PyList_GET_ITEM(L->nv.next_at, pid);
            int msgs_due = 0;
            if (head_obj != Py_None) {
                int64_t head = PyLong_AsLongLong(head_obj);
                if (head == -1 && PyErr_Occurred())
                    goto step_fail;
                msgs_due = head <= t;
            }
            if (msgs_due) {
                Shard *shard = &pool->shards[pid];
                PyObject *on_message = L->on_message_m[pid];
                int handler_err = 0;
                /* what on_message raised under random scheduling, while
                 * the rest of the batch is popped unhandled (see below) */
                PyObject *exc_type = NULL, *exc_value = NULL, *exc_tb = NULL;
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
                    if (deliver_at < NEVER_I64) {
                        /* per-message live accounting, exactly as the
                         * Python loop orders it (visible on handler
                         * exception) */
                        if (list_add_i64(L->nv.live, pid, -1) < 0) {
                            Py_DECREF(payload);
                            handler_err = 1;
                            break;
                        }
                        int is_dead = PySet_Contains(L->nv.dead, pid_obj);
                        if (is_dead < 0) {
                            Py_DECREF(payload);
                            handler_err = 1;
                            break;
                        }
                        if (!is_dead
                            && add_i64_attr(L->nv.net, s_live_pending, -1) < 0) {
                            Py_DECREF(payload);
                            handler_err = 1;
                            break;
                        }
                    }
                    if (exc_type != NULL) {
                        Py_DECREF(payload);
                        continue;
                    }
                    /* a sender outside 0..n-1 can only come from a direct
                     * network.send(); it still must not index pid_objs */
                    PyObject *sender_obj;
                    if (sender >= 0 && sender < n) {
                        sender_obj = L->pid_objs[sender];
                        Py_INCREF(sender_obj);
                    } else {
                        sender_obj = PyLong_FromLong(sender);
                    }
                    PyObject *r = sender_obj == NULL
                        ? NULL
                        : call3(on_message, L->ctx, sender_obj, payload);
                    Py_XDECREF(sender_obj);
                    Py_DECREF(payload);
                    if (r == NULL) {
                        if (!L->random) {
                            handler_err = 1;
                            break;
                        }
                        /* The oracle here is Simulation.step, which pops
                         * and folds the whole batch before it calls a
                         * handler: pop the rest and fold them too, so a
                         * raise leaves the pool and merge layer as it
                         * does. */
                        PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
                        continue;
                    }
                    Py_DECREF(r);
                }
                if (!handler_err
                    && fold_pops(&L->nv, pid, pid_obj, received) < 0)
                    handler_err = 1;
                if (exc_type != NULL) {
                    if (handler_err) {   /* superseded by a C-API failure */
                        Py_DECREF(exc_type);
                        Py_XDECREF(exc_value);
                        Py_XDECREF(exc_tb);
                    } else {
                        PyErr_Restore(exc_type, exc_value, exc_tb);
                        handler_err = 1;
                    }
                }
                if (handler_err)
                    goto step_fail;
            }

            /* timeout */
            int timeout_fired = 0;
            if (t >= L->next_to[pid]) {
                timeout_fired = 1;
                L->next_to[pid] = t + L->interval[pid];
                if (list_set_i64(L->next_timeout_list, pid,
                                 L->next_to[pid]) < 0)
                    goto step_fail;
                PyObject *r = call1(L->on_timeout_m[pid], L->ctx);
                if (r == NULL)
                    goto step_fail;
                Py_DECREF(r);
            }

            /* outbox expansion through the C send path */
            long sent = 0;
            PyObject *outbox = PyObject_GetAttr(L->ctx, s__outbox);
            if (outbox == NULL)
                goto step_fail;
            if (PyList_Check(outbox) && PyList_GET_SIZE(outbox) > 0) {
                PyObject *fresh = PyList_New(0);
                if (fresh == NULL) {
                    Py_DECREF(outbox);
                    goto step_fail;
                }
                int r_set = PyObject_SetAttr(L->ctx, s__outbox, fresh);
                Py_DECREF(fresh);
                if (r_set < 0) {
                    Py_DECREF(outbox);
                    goto step_fail;
                }
                Py_ssize_t count = PyList_GET_SIZE(outbox);
                for (Py_ssize_t i = 0; i < count; i++) {
                    PyObject *entry = PyList_GET_ITEM(outbox, i);
                    if (!PyTuple_Check(entry)
                        || PyTuple_GET_SIZE(entry) != 2) {
                        PyErr_SetString(PyExc_TypeError,
                                        "outbox entries must be "
                                        "(receiver, payload) tuples");
                        break;
                    }
                    PyObject *recv_obj = PyTuple_GET_ITEM(entry, 0);
                    PyObject *payload = PyTuple_GET_ITEM(entry, 1);
                    long receiver = PyLong_AsLong(recv_obj);
                    if (receiver == -1 && PyErr_Occurred())
                        break;
                    if (receiver >= 0) {
                        int64_t seq;
                        if (net_send(&L->nv, pid, pid_obj, recv_obj, payload,
                                     t, t_obj, NULL, &seq) < 0)
                            break;
                        sent += 1;
                    } else {
                        /* BROADCAST_ALL (-1) includes the sender */
                        long fanout;
                        if (net_send_all(&L->nv, pid, pid_obj, payload, t,
                                         t_obj, receiver == -1, NULL,
                                         &fanout) < 0)
                            break;
                        sent += fanout;
                    }
                }
            }
            Py_DECREF(outbox);
            if (PyErr_Occurred())
                goto step_fail;

            /* outputs / log drains */
            PyObject *outputs = PyObject_GetAttr(L->ctx, s__outputs);
            if (outputs == NULL)
                goto step_fail;
            if (PyList_Check(outputs) && PyList_GET_SIZE(outputs) > 0) {
                PyObject *fresh = PyList_New(0);
                if (fresh == NULL) {
                    Py_DECREF(outputs);
                    goto step_fail;
                }
                int r_set = PyObject_SetAttr(L->ctx, s__outputs, fresh);
                Py_DECREF(fresh);
                if (r_set < 0) {
                    Py_DECREF(outputs);
                    goto step_fail;
                }
                outputs_t = PyList_AsTuple(outputs);
                Py_DECREF(outputs);
                if (outputs_t == NULL)
                    goto step_fail;
            } else {
                Py_DECREF(outputs);
                outputs_t = L->empty_tuple;
                Py_INCREF(outputs_t);
            }
            PyObject *log_buf = PyObject_GetAttr(L->ctx, s__log);
            if (log_buf == NULL)
                goto step_fail;
            if (PyList_Check(log_buf) && PyList_GET_SIZE(log_buf) > 0) {
                PyObject *fresh = PyList_New(0);
                int r_set = fresh == NULL
                    ? -1 : PyObject_SetAttr(L->ctx, s__log, fresh);
                Py_XDECREF(fresh);
                if (r_set < 0) {
                    Py_DECREF(log_buf);
                    goto step_fail;
                }
                int log_err = 0;
                Py_ssize_t log_len = PyList_GET_SIZE(log_buf);
                for (Py_ssize_t e = 0; e < log_len && !log_err; e++) {
                    PyObject *event = PyList_GET_ITEM(log_buf, e);
                    for (Py_ssize_t i = 0; i < L->log_count; i++) {
                        PyObject *cargs[4] = {sim, t_obj, pid_obj, event};
                        PyObject *r = PyObject_Vectorcall(
                            L->log_methods[i], cargs, 4, NULL);
                        if (r == NULL) {
                            log_err = 1;
                            break;
                        }
                        Py_DECREF(r);
                    }
                }
                if (log_err) {
                    Py_DECREF(log_buf);
                    goto step_fail;
                }
            }
            Py_DECREF(log_buf);

            /* _refresh_local, inlined */
            int64_t event_at = L->next_to[pid];
            {
                int64_t at;
                int has = peek_input_at(in_q, &at);
                if (has < 0)
                    goto step_fail;
                if (has > 0 && at < event_at)
                    event_at = at;
            }
            int64_t local_at;
            if (local_event_at(L, pid, &local_at) < 0)
                goto step_fail;
            if (event_at != local_at) {
                if (list_set_i64(L->local_event, pid, event_at) < 0)
                    goto step_fail;
                if (PyList_GET_SIZE(L->local_horizon) > L->local_cap) {
                    PyObject *rebuilt = PyList_New(n);
                    if (rebuilt == NULL)
                        goto step_fail;
                    for (long p = 0; p < n; p++) {
                        PyObject *pair = PyTuple_Pack(
                            2, PyList_GET_ITEM(L->local_event, p),
                            L->pid_objs[p]);
                        if (pair == NULL) {
                            Py_DECREF(rebuilt);
                            goto step_fail;
                        }
                        PyList_SET_ITEM(rebuilt, p, pair);
                    }
                    int r_slice = PyList_SetSlice(L->local_horizon, 0,
                                                  PY_SSIZE_T_MAX, rebuilt);
                    Py_DECREF(rebuilt);
                    if (r_slice < 0)
                        goto step_fail;
                    PyObject *r = call1(g_heapify, L->local_horizon);
                    if (r == NULL)
                        goto step_fail;
                    Py_DECREF(r);
                }
                if (heap_push_pair(L->local_horizon, event_at, pid_obj) < 0)
                    goto step_fail;
            }

            int64_t index = step_index;
            step_index += 1;
            if (set_i64_attr(sim, s__step_index, step_index) < 0)
                goto step_fail;

            if (L->has_store) {
                PyObject *v, *r;
#define ST_APPEND_STOLEN(slot_i, boxed)                                     \
                do {                                                        \
                    v = (boxed);                                            \
                    if (v == NULL)                                          \
                        goto step_fail;                                     \
                    r = call1(L->st_append[slot_i], v);                     \
                    Py_DECREF(v);                                           \
                    if (r == NULL)                                          \
                        goto step_fail;                                     \
                    Py_DECREF(r);                                           \
                } while (0)
#define ST_APPEND_BORROWED(slot_i, obj)                                     \
                do {                                                        \
                    r = call1(L->st_append[slot_i], (obj));                 \
                    if (r == NULL)                                          \
                        goto step_fail;                                     \
                    Py_DECREF(r);                                           \
                } while (0)
                ST_APPEND_STOLEN(0, PyLong_FromLongLong(index));
                ST_APPEND_BORROWED(1, t_obj);
                ST_APPEND_BORROWED(2, pid_obj);
                if (fd_value == Py_None) {
                    ST_APPEND_BORROWED(3, Py_None);
                } else {
                    ST_APPEND_STOLEN(3, call1(L->intern_fd, fd_value));
                }
                ST_APPEND_STOLEN(4, PyLong_FromLong(first_sender));
                ST_APPEND_BORROWED(
                    5, first_payload != NULL ? first_payload : Py_None);
                ST_APPEND_STOLEN(6, PyLong_FromLongLong(first_send_time));
                ST_APPEND_STOLEN(7, PyLong_FromLong(timeout_fired));
                ST_APPEND_STOLEN(8, PyLong_FromLong(sent));
                ST_APPEND_STOLEN(9, PyLong_FromLong(received));
#undef ST_APPEND_STOLEN
#undef ST_APPEND_BORROWED
                if (PyTuple_GET_SIZE(inputs_t) > 0
                    || PyTuple_GET_SIZE(outputs_t) > 0) {
                    Py_ssize_t size = PyObject_Size(L->st_index_col);
                    if (size < 0)
                        goto step_fail;
                    PyObject *position = PyLong_FromSsize_t(size - 1);
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
                if (t > run_end_time) {
                    run_end_time = t;
                    if (set_i64_attr(L->run, s_end_time, t) < 0)
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
            } else if (L->raw_methods != NULL) {
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
        if (n <= L->scan_cutover) {
            for (long p = 0; p < n; p++) {
                int64_t event_at;
                if (local_event_at(L, p, &event_at) < 0)
                    goto fail;
                PyObject *d = PyList_GET_ITEM(L->nv.next_at, p);
                if (d != Py_None) {
                    int64_t deliver_at = PyLong_AsLongLong(d);
                    if (deliver_at == -1 && PyErr_Occurred())
                        goto fail;
                    if (deliver_at < event_at)
                        event_at = deliver_at;
                }
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
        } else {
            if (loop_flush_idle(L) < 0)
                goto fail;
            PyObject *now_obj = PyLong_FromLongLong(t);
            if (now_obj == NULL)
                goto fail;
            PyObject *r = call2(L->query_next, now_obj,
                                L->random ? Py_False : Py_True);
            Py_DECREF(now_obj);
            if (r == NULL)
                goto fail;
            if (r != Py_None) {
                target = PyLong_AsLongLong(r);
                have_target = 1;
                if (target == -1 && PyErr_Occurred()) {
                    Py_DECREF(r);
                    goto fail;
                }
            }
            Py_DECREF(r);
        }
        int64_t jump_to = (!have_target || target >= t_end) ? t_end : target;
        if (jump_to > t) {
            if (loop_flush_idle(L) < 0)
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
            /* _skip_span_rr may materialize idle steps (bumping
             * _step_index) — re-read the mirror */
            if (get_i64_attr(sim, s__step_index, &step_index) < 0)
                goto fail;
            t = jump_to;
        }
        if (t == t_end)
            break;
        if (L->random) {
            /* An event is due at t, for some process: walk t's block up to
             * the first tick whose scheduled process has work (executed at
             * the top of the loop, its block now cached).  The slot of the
             * event's owner may already be behind t: the block then comes
             * up empty and the horizon is recomputed past it. */
            int64_t base = t - t % n;
            int64_t hi = base + n < t_end ? base + n : t_end;
            if (loop_perm(L, t / n) < 0)
                goto fail;
            for (; t < hi; t++) {
                long p = L->perm[t - base];
                if (L->has_crashes && t >= L->crash_at[p])
                    continue;
                int p_due = pid_due(L, p, t);
                if (p_due < 0)
                    goto fail;
                if (p_due)
                    break;
                L->idle_acc += 1;
                L->last_live_acc = t;
            }
        }
    }
    if (loop_flush_idle(L) < 0)
        goto fail;
    if (set_i64_attr(sim, s_time, t) < 0)
        goto fail;
    loop_free(L);
    Py_RETURN_NONE;

step_fail:
    Py_XDECREF(t_obj);
    Py_XDECREF(fd_value);
    Py_XDECREF(inputs_t);
    Py_XDECREF(outputs_t);
    Py_XDECREF(first_payload);
fail:
    if (L->idle_acc != 0) {
        /* the idle ticks walked so far happened: account them under the
         * pending exception */
        PyObject *exc_type, *exc_value, *exc_tb;
        PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
        if (loop_flush_idle(L) < 0)
            PyErr_Clear();
        PyErr_Restore(exc_type, exc_value, exc_tb);
    }
    loop_free(L);
    return NULL;
}

/* ======================================================================== */
/* stable_hash: the counter-based draw hash of repro.sim.types              */
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
            if (value == -1 && !overflow && PyErr_Occurred())
                return NULL;
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

/* send_packed(net, sender, receiver, payload, t[, collect]) -> seq and
 * send_all_packed(net, sender, payload, t, include_self[, collect]) -> count:
 * the bodies of CompiledPackedNetwork's send methods, and the same code
 * run_loop expands an outbox through. */
/* Five arguments plus the optional `collect` list (NULL when absent or
 * None).  Returns -1 with TypeError on a wrong count or a non-list. */
static int
parse_collect(PyObject *const *args, Py_ssize_t nargs, const char *usage,
              PyObject **collect)
{
    *collect = nargs == 6 && args[5] != Py_None ? args[5] : NULL;
    if ((nargs != 5 && nargs != 6)
        || (*collect != NULL && !PyList_Check(*collect))) {
        PyErr_SetString(PyExc_TypeError, usage);
        return -1;
    }
    return 0;
}

static PyObject *
ckernel_send_packed(PyObject *Py_UNUSED(module), PyObject *const *args,
                    Py_ssize_t nargs)
{
    PyObject *collect;
    if (parse_collect(args, nargs,
                      "send_packed(net, sender, receiver, payload, t, "
                      "collect: list | None = None)", &collect) < 0)
        return NULL;
    long sender = PyLong_AsLong(args[1]);
    int64_t t = PyLong_AsLongLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
    NetView nv = {0};
    int64_t seq = 0;
    int rc = net_view_init(&nv, args[0]);
    if (rc == 0)
        rc = net_send(&nv, sender, args[1], args[2], args[3], t, args[4],
                      collect, &seq);
    net_view_free(&nv);
    return rc < 0 ? NULL : PyLong_FromLongLong(seq);
}

static PyObject *
ckernel_send_all_packed(PyObject *Py_UNUSED(module), PyObject *const *args,
                        Py_ssize_t nargs)
{
    PyObject *collect;
    if (parse_collect(args, nargs,
                      "send_all_packed(net, sender, payload, t, include_self, "
                      "collect: list | None = None)", &collect) < 0)
        return NULL;
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
                          include_self, collect, &count);
    net_view_free(&nv);
    return rc < 0 ? NULL : PyLong_FromLong(count);
}

static PyMethodDef ckernel_functions[] = {
    {"send_packed", (PyCFunction)(void (*)(void))ckernel_send_packed,
     METH_FASTCALL,
     "send_packed(net, sender, receiver, payload, t, collect=None)\n--\n\n"
     "CompiledPackedNetwork.send_packed: draw the delay, queue the message\n"
     "in net._pool and fold it into the merge layer; returns its seq.\n"
     "A list passed as collect receives the (deliver_at, seq, sender,\n"
     "receiver, payload, send_time) fields of its Envelope view."},
    {"send_all_packed", (PyCFunction)(void (*)(void))ckernel_send_all_packed,
     METH_FASTCALL,
     "send_all_packed(net, sender, payload, t, include_self, collect=None)"
     "\n--\n\n"
     "CompiledPackedNetwork.send_all_packed: one batched broadcast pass,\n"
     "the same draws in the same order as n sends; returns the count."},
    {"stable_hash", (PyCFunction)(void (*)(void))ckernel_stable_hash,
     METH_FASTCALL,
     "stable_hash($module, /, *parts)\n--\n\n"
     "A deterministic 63-bit hash of the given parts: FNV-1a over the\n"
     "bytes of repr(part).encode() for every part, bit-identical to the\n"
     "Python body in repro.sim.types."},
    {"run_loop", (PyCFunction)(void (*)(void))ckernel_run_loop,
     METH_FASTCALL,
     "run_loop(sim, t_end, store)\n--\n\n"
     "Run the event engine to t_end in C, under round-robin or random\n"
     "scheduling, calling back into Python only for process handlers, the\n"
     "delay model, idle-span accounting, and raw observers.  Byte-identical\n"
     "to kernel.run_fused_rr / Simulation._advance_event_random."},
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
    INTERN(s_n, "n");
    INTERN(s_processes, "processes");
    INTERN(s__ctx, "_ctx");
    INTERN(s_detector, "detector");
    INTERN(s_query, "query");
    INTERN(s_failure_pattern, "failure_pattern");
    INTERN(s_crash_times, "crash_times");
    INTERN(s__next_event_query, "_next_event_query");
    INTERN(s__skip_span_rr, "_skip_span_rr");
    INTERN(s__local_event, "_local_event");
    INTERN(s__local_horizon, "_local_horizon");
    INTERN(s__local_cap, "_local_cap");
    INTERN(s__next_timeout, "_next_timeout");
    INTERN(s_timeout_intervals, "timeout_intervals");
    INTERN(s__inputs, "_inputs");
    INTERN(s__started, "_started");
    INTERN(s_message_batch, "message_batch");
    INTERN(s__raw_step_observers, "_raw_step_observers");
    INTERN(s_run, "run");
    INTERN(s__scan_cutover, "_scan_cutover");
    INTERN(s__step_index, "_step_index");
    INTERN(s_time, "time");
    INTERN(s_last_live_tick, "last_live_tick");
    INTERN(s_pid, "pid");
    INTERN(s_fd_value, "fd_value");
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
    INTERN(s__live, "_live");
    INTERN(s__dead, "_dead");
    INTERN(s__horizon, "_horizon");
    INTERN(s__horizon_cap, "_horizon_cap");
    INTERN(s__compact_horizon, "_compact_horizon");
    INTERN(s_delay_model, "delay_model");
    INTERN(s_delay, "delay");
    INTERN(s_delay_profile, "delay_profile");
    INTERN(s__next_seq, "_next_seq");
    INTERN(s_sent_count, "sent_count");
    INTERN(s__pool, "_pool");
    INTERN(s_delivered_count, "delivered_count");
    INTERN(s_live_pending, "live_pending");
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
    INTERN(s_append, "append");
    INTERN(s__log_observers, "_log_observers");
    INTERN(s_on_log, "on_log");
    INTERN(s_scheduling, "scheduling");
    INTERN(s__skip_span_random, "_skip_span_random");
    INTERN(s_seed, "seed");
    INTERN(s__permutation, "_permutation");
    INTERN(s__perm_block, "_perm_block");
    INTERN(s_metrics, "metrics");
    INTERN(s_idle_ticks_skipped, "idle_ticks_skipped");
    INTERN(s_getrandbits, "getrandbits");
    INTERN(s_block_permutation, "block-permutation");
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
    g_heappush = PyObject_GetAttrString(heapq_mod, "heappush");
    g_heappop = PyObject_GetAttrString(heapq_mod, "heappop");
    g_heapify = PyObject_GetAttrString(heapq_mod, "heapify");
    Py_DECREF(heapq_mod);
    if (g_heappush == NULL || g_heappop == NULL || g_heapify == NULL)
        return NULL;
    PyObject *random_mod = PyImport_ImportModule("_random");
    if (random_mod == NULL)
        return NULL;
    g_random_type = PyObject_GetAttrString(random_mod, "Random");
    Py_DECREF(random_mod);
    if (g_random_type == NULL)
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
                                   SOURCE_DIGEST) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
