/*
 * The compiled receiver kernel of the PHY.
 *
 * frame_start is CorrelatedRayleighFading.sample_link_gains' AR(1) step
 * of each link followed by WirelessChannel._batched_start's receiver
 * loop (repro.net.channel), and frame_end is WirelessChannel._withdraw
 * followed by WirelessChannel._decide, operation for operation, so a
 * run is bit-identical to the pure-Python passes: each link's AR(1)
 * step drawn from the channel's MT19937, the faded power added to the
 * receiver, the peak interference of its pending receptions raised,
 * idle -> busy carrier-sense flips passed to a waiting MAC, decode
 * starts; at the frame's end its power withdrawn, busy -> idle flips
 * passed on, then each pending reception decided by
 * ReceptionModel.decide's stock rule, tallied by fate and, on success,
 * delivered.  Every frame of a sender takes this pass, its first too:
 * the channel computes the step's rho and innovation from the fan-out's
 * last frame time (CorrelatedRayleighFading.coefficients), and on a
 * first frame its zeroed link states with rho 0 and innovation
 * sqrt(0.5) make each step a fresh link's draw.
 *
 * Per-node state is the channel's PhyLedger, columns indexed by node
 * id.  The numeric ones are packed arrays: power, sense threshold and
 * the decision rule's receive threshold, noise and linear SINR
 * threshold are array('d'), the on-air count array('l'), sensed-busy
 * and transmitting array('b').  Each frame_start/frame_end call
 * acquires every packed column's buffer once, checks its type code and
 * item size, and reads and writes the rows as C doubles, longs and
 * chars; it holds the buffers until it returns, so an upcall cannot
 * resize a column under it (an array that exports a buffer refuses to
 * resize, with BufferError).  The MAC, pending-reception dict, node and
 * counter dict (each node's counters.counts, which tallies index
 * directly) columns stay lists, read with PyList_GET_ITEM.  A pending
 * reception is a two-item list [signal_mw, peak_interference_mw] keyed
 * by its transmission.
 * A sender's fan-out is two columns, the receiver-id list and an
 * array('d') of mean powers, which is read as doubles through the
 * buffer protocol, and its links' fading state, an array('d') of
 * (time, real, imag) triples in receiver order, written the same way.
 * Python is called only where the Python passes call it: the MAC's
 * on_medium_state on a flip it awaits, Node.deliver on a decoded
 * frame, and the node's counter dict.  A callback may run arbitrary
 * Python, so every row id is checked against the packed columns' length
 * and the list columns' current sizes, and every borrowed object a
 * callback could release is held.
 * A channel whose reception models are not the stock one decides in
 * Python and calls frame_end for the withdrawal alone.
 *
 * Stream is an MT19937 that reproduces random.Random: random() is the
 * same 53-bit recipe over the same generator, getstate()/setstate() use
 * random.Random's internal-state tuple.  repro.phy.kernel wraps it in a
 * random.Random subclass, so the channel's Python callers and these
 * loops consume one stream.
 *
 * Build with -ffp-contract=off and without -ffast-math: every
 * expression below must round exactly as CPython's does.  The
 * transcendentals are libm's, as are math.log/sqrt/cos/sin.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>

/* ------------------------------------------------------------------ */
/* MT19937, as in CPython's Modules/_randommodule.c                    */

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

typedef struct {
    PyObject_HEAD
    int index;
    uint32_t state[MT_N];
} StreamObject;

static uint32_t
genrand_uint32(StreamObject *self)
{
    static const uint32_t mag01[2] = {0x0U, MATRIX_A};
    uint32_t *mt = self->state;
    uint32_t y;

    if (self->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        self->index = 0;
    }
    y = mt[self->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): a 53-bit double in [0, 1). */
static double
genrand_double(StreamObject *self)
{
    uint32_t a = genrand_uint32(self) >> 5;
    uint32_t b = genrand_uint32(self) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static PyObject *
Stream_random(StreamObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(genrand_double(self));
}

static PyObject *
Stream_getrandbits(StreamObject *self, PyObject *arg)
{
    long k = PyLong_AsLong(arg);
    if (k == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (k < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "number of bits must be non-negative");
        return NULL;
    }
    if (k <= 32) {
        /* k == 0 draws nothing, as in CPython. */
        return PyLong_FromUnsignedLong(
            k == 0 ? 0UL : (unsigned long)(genrand_uint32(self) >> (32 - k)));
    }
    /* Little-endian 32-bit words, the last one truncated to its bits. */
    PyObject *result = PyLong_FromLong(0);
    for (long shift = 0; result != NULL && k > 0; shift += 32, k -= 32) {
        uint32_t word = genrand_uint32(self);
        if (k < 32) {
            word >>= (32 - k);
        }
        PyObject *value = PyLong_FromUnsignedLong(word);
        PyObject *places = PyLong_FromLong(shift);
        PyObject *shifted = (value && places)
            ? PyNumber_Lshift(value, places) : NULL;
        Py_XDECREF(value);
        Py_XDECREF(places);
        PyObject *merged = shifted ? PyNumber_Or(result, shifted) : NULL;
        Py_XDECREF(shifted);
        Py_SETREF(result, merged);
    }
    return result;
}

static PyObject *
Stream_getstate(StreamObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *state = PyTuple_New(MT_N + 1);
    if (state == NULL) {
        return NULL;
    }
    for (int i = 0; i < MT_N; i++) {
        PyObject *word = PyLong_FromUnsignedLong(self->state[i]);
        if (word == NULL) {
            Py_DECREF(state);
            return NULL;
        }
        PyTuple_SET_ITEM(state, i, word);
    }
    PyObject *index = PyLong_FromLong(self->index);
    if (index == NULL) {
        Py_DECREF(state);
        return NULL;
    }
    PyTuple_SET_ITEM(state, MT_N, index);
    return state;
}

static PyObject *
Stream_setstate(StreamObject *self, PyObject *state)
{
    uint32_t words[MT_N];
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != MT_N + 1) {
        PyErr_SetString(PyExc_ValueError,
                        "state must be random.Random's 625-int tuple");
        return NULL;
    }
    for (int i = 0; i < MT_N; i++) {
        unsigned long word = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(state, i));
        if (word == (unsigned long)-1 && PyErr_Occurred()) {
            return NULL;
        }
        words[i] = (uint32_t)word;
    }
    long index = PyLong_AsLong(PyTuple_GET_ITEM(state, MT_N));
    if (index == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (index < 0 || index > MT_N) {
        PyErr_SetString(PyExc_ValueError, "invalid state");
        return NULL;
    }
    memcpy(self->state, words, sizeof(words));
    self->index = (int)index;
    Py_RETURN_NONE;
}

static PyObject *
Stream_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *state = NULL;
    static char *kwlist[] = {"state", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:Stream", kwlist, &state)) {
        return NULL;
    }
    StreamObject *self = (StreamObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    /* Unseeded: the all-zero generator, until setstate() is called. */
    self->index = MT_N;
    if (state != NULL) {
        PyObject *done = Stream_setstate(self, state);
        if (done == NULL) {
            Py_DECREF(self);
            return NULL;
        }
        Py_DECREF(done);
    }
    return (PyObject *)self;
}

static PyMethodDef Stream_methods[] = {
    {"random", (PyCFunction)Stream_random, METH_NOARGS,
     "The next double in [0, 1), as random.Random.random() draws it."},
    {"getrandbits", (PyCFunction)Stream_getrandbits, METH_O,
     "An int with k random bits, as random.Random.getrandbits(k)."},
    {"getstate", (PyCFunction)Stream_getstate, METH_NOARGS,
     "The generator state in random.Random's internal-state layout."},
    {"setstate", (PyCFunction)Stream_setstate, METH_O,
     "Restore a state returned by getstate()."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject StreamType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.phy._rxkernel.Stream",
    .tp_basicsize = sizeof(StreamObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "MT19937 generator, bit-identical to random.Random.",
    .tp_new = Stream_new,
    .tp_methods = Stream_methods,
};

/* ------------------------------------------------------------------ */
/* The ledger                                                          */

static PyObject *s_awaited_sense, *s_on_medium_state, *s_touched,
    *s_powers, *s_decoding, *s_start_time, *s_packet, *s_sender_id,
    *s_dest_id, *s_deliver, *s_rx_ok,
    *s_rx_failed_half_duplex, *s_rx_failed_collision,
    *one;

/* PhyLedger.columns, in its order. */
enum { L_POWER, L_ON_AIR, L_BUSY, L_TRANSMITTING, L_SENSE, L_MACS,
       L_PENDING, L_NODES, L_RX_THR, L_NOISE, L_SINR, L_COUNTS, L_COLUMNS };

/* The packed columns: each one's place in the tuple, array type code,
 * item size, whether the kernel writes it, and its name in errors. */
static const struct {
    int column;
    const char *code;
    Py_ssize_t itemsize;
    int writable;
    const char *name;
} PACKED[] = {
    {L_POWER, "d", sizeof(double), 1, "ledger column power_mw"},
    {L_ON_AIR, "l", sizeof(long), 1, "ledger column on_air"},
    {L_BUSY, "b", sizeof(signed char), 1, "ledger column busy"},
    {L_TRANSMITTING, "b", sizeof(signed char), 0, "ledger column transmitting"},
    {L_SENSE, "d", sizeof(double), 0, "ledger column sense_mw"},
    {L_RX_THR, "d", sizeof(double), 0, "ledger column rx_thr_mw"},
    {L_NOISE, "d", sizeof(double), 0, "ledger column noise_mw"},
    {L_SINR, "d", sizeof(double), 0, "ledger column sinr_linear"},
};
#define L_PACKED ((int)(sizeof(PACKED) / sizeof(PACKED[0])))

/* The list columns and their names. */
static const struct {
    int column;
    const char *name;
} LISTS[] = {
    {L_MACS, "macs"}, {L_PENDING, "pending"}, {L_NODES, "nodes"},
    {L_COUNTS, "counts"},
};
#define L_LISTS ((int)(sizeof(LISTS) / sizeof(LISTS[0])))

/* One call's view of the ledger: the packed columns' buffers, held from
 * unpack_ledger to release_ledger, so no upcall in between can resize
 * (or free) them, and the list columns, borrowed from the tuple. */
typedef struct {
    double *power, *sense, *rx_thr, *noise, *sinr;
    long *on_air;
    signed char *busy, *transmitting;
    PyObject *macs, *pending, *nodes, *counts;
    Py_ssize_t rows;           /* items in the shortest packed column */
    Py_buffer view[L_PACKED];
    int held;                  /* views acquired, in PACKED order */
} Ledger;

static void
release_ledger(Ledger *ledger)
{
    while (ledger->held > 0) {
        PyBuffer_Release(&ledger->view[--ledger->held]);
    }
}

/* The buffer of `obj` checked to be an array of type `code`; -1 with a
 * TypeError naming `what` otherwise.  Nothing is held on failure. */
static int
get_array(PyObject *obj, Py_buffer *view, int flags, const char *code,
          Py_ssize_t itemsize, const char *what)
{
    if (!PyObject_CheckBuffer(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be an array('%s')", what, code);
        return -1;
    }
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_FORMAT) < 0) {
        return -1;
    }
    if (view->itemsize != itemsize || view->format == NULL
        || strcmp(view->format, code) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('%s')", what, code);
        return -1;
    }
    return 0;
}

/* Bind the columns tuple: every packed column's buffer is acquired (and
 * must be released with release_ledger, also on failure). */
static int
unpack_ledger(PyObject *columns, Ledger *ledger)
{
    ledger->held = 0;
    if (!PyTuple_Check(columns) || PyTuple_GET_SIZE(columns) != L_COLUMNS) {
        PyErr_Format(PyExc_TypeError,
                     "the ledger must be a tuple of %d columns", L_COLUMNS);
        return -1;
    }
    for (int k = 0; k < L_LISTS; k++) {
        PyObject *column = PyTuple_GET_ITEM(columns, LISTS[k].column);
        if (!PyList_Check(column)) {
            PyErr_Format(PyExc_TypeError, "ledger column %s must be a list",
                         LISTS[k].name);
            return -1;
        }
    }
    ledger->macs = PyTuple_GET_ITEM(columns, L_MACS);
    ledger->pending = PyTuple_GET_ITEM(columns, L_PENDING);
    ledger->nodes = PyTuple_GET_ITEM(columns, L_NODES);
    ledger->counts = PyTuple_GET_ITEM(columns, L_COUNTS);
    void *buf[L_COLUMNS];
    ledger->rows = PY_SSIZE_T_MAX;
    for (int k = 0; k < L_PACKED; k++) {
        Py_buffer *view = &ledger->view[k];
        if (get_array(PyTuple_GET_ITEM(columns, PACKED[k].column), view,
                      PACKED[k].writable ? PyBUF_WRITABLE : PyBUF_SIMPLE,
                      PACKED[k].code, PACKED[k].itemsize, PACKED[k].name) < 0) {
            return -1;
        }
        ledger->held++;
        buf[PACKED[k].column] = view->buf;
        ledger->rows = Py_MIN(ledger->rows, view->len / PACKED[k].itemsize);
    }
    ledger->power = buf[L_POWER];
    ledger->on_air = buf[L_ON_AIR];
    ledger->busy = buf[L_BUSY];
    ledger->transmitting = buf[L_TRANSMITTING];
    ledger->sense = buf[L_SENSE];
    ledger->rx_thr = buf[L_RX_THR];
    ledger->noise = buf[L_NOISE];
    ledger->sinr = buf[L_SINR];
    return 0;
}

/* The node id in `id_obj`, checked against the packed columns' length
 * and the list columns' current sizes; -1 with an exception set when it
 * is not a row of the ledger. */
static Py_ssize_t
ledger_row(const Ledger *ledger, PyObject *id_obj)
{
    Py_ssize_t rid = PyLong_AsSsize_t(id_obj);
    if (rid == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (rid < 0 || rid >= ledger->rows
        || rid >= PyList_GET_SIZE(ledger->macs)
        || rid >= PyList_GET_SIZE(ledger->pending)
        || rid >= PyList_GET_SIZE(ledger->nodes)
        || rid >= PyList_GET_SIZE(ledger->counts)) {
        PyErr_Format(PyExc_IndexError,
                     "receiver id %zd is not a row of the ledger", rid);
        return -1;
    }
    return rid;
}

/* busy[rid] = busy; then macs[rid].on_medium_state(busy) when that MAC
 * waits for exactly this state (awaited_sense is busy).  The caller
 * re-checks `rid` afterwards: the callback may resize a list column. */
static int
flip_sense(const Ledger *ledger, Py_ssize_t rid, int busy)
{
    PyObject *flag = busy ? Py_True : Py_False;
    ledger->busy[rid] = (signed char)busy;
    PyObject *mac = Py_NewRef(PyList_GET_ITEM(ledger->macs, rid));
    PyObject *awaited = PyObject_GetAttr(mac, s_awaited_sense);
    int status = awaited == NULL ? -1 : 0;
    if (awaited == flag) {
        PyObject *done = PyObject_CallMethodOneArg(mac, s_on_medium_state, flag);
        status = done == NULL ? -1 : 0;
        Py_XDECREF(done);
    }
    Py_XDECREF(awaited);
    Py_DECREF(mac);
    return status;
}

static int
check_list(PyObject *obj, const char *what)
{
    if (!PyList_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list", what);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The frame-start pass                                                */

static const double TWOPI = 2.0 * 3.14159265358979323846;  /* math.tau */

/* The pending reception `row` checked to be a [signal_mw,
 * peak_interference_mw] list; -1 with an exception set otherwise. */
static int
check_row(PyObject *row)
{
    if (!PyList_Check(row) || PyList_GET_SIZE(row) != 2) {
        PyErr_SetString(PyExc_TypeError,
                        "a pending reception must be a "
                        "[signal_mw, peak_interference_mw] list");
        return -1;
    }
    return 0;
}

/* The value of `obj`, which the caller holds: converting an object that
 * is not a float may run Python. */
static double
held_double(PyObject *obj)
{
    return PyFloat_CheckExact(obj) ? PyFloat_AS_DOUBLE(obj)
                                   : PyFloat_AsDouble(obj);
}

/* row[k] = value, as a new float; -1 with an exception set on failure. */
static int
set_row_item(PyObject *row, Py_ssize_t k, double value)
{
    PyObject *boxed = PyFloat_FromDouble(value);
    return boxed == NULL ? -1 : PyList_SetItem(row, k, boxed);
}

/* For every pending reception at the receiver: raise its peak
 * interference to the total power minus its own signal. */
static int
raise_interference(PyObject *pending, double total)
{
    Py_ssize_t pos = 0;
    PyObject *key, *row;
    while (PyDict_Next(pending, &pos, &key, &row)) {
        if (check_row(row) < 0) {
            return -1;
        }
        Py_INCREF(row);
        PyObject *signal_obj = Py_NewRef(PyList_GET_ITEM(row, 0));
        PyObject *peak_obj = Py_NewRef(PyList_GET_ITEM(row, 1));
        double signal = held_double(signal_obj);
        double peak = PyErr_Occurred() ? 0.0 : held_double(peak_obj);
        double level = total - signal;
        int failed = PyErr_Occurred() != NULL
            || (level > peak && set_row_item(row, 1, level) < 0);
        Py_DECREF(peak_obj);
        Py_DECREF(signal_obj);
        Py_DECREF(row);
        if (failed) {
            return -1;
        }
    }
    return 0;
}

/* One receiver's share of frame_start after its power is known: the
 * ledger update, interference, carrier sense and decode start, against
 * the receiver's rx_thr_mw threshold. */
static int
start_receiver(const Ledger *ledger, PyObject *tx, PyObject *id_obj,
               PyObject *power_obj, double power, PyObject *decoding)
{
    Py_ssize_t rid = ledger_row(ledger, id_obj);
    if (rid < 0) {
        return -1;
    }
    double total = ledger->power[rid] + power;
    ledger->power[rid] = total;
    ledger->on_air[rid] += 1;
    PyObject *pending = Py_NewRef(PyList_GET_ITEM(ledger->pending, rid));
    int status = -1;
    if (!PyDict_Check(pending)) {
        PyErr_SetString(PyExc_TypeError, "pending_receptions must be a dict");
        goto done;
    }
    /* A row item that is not a float may run Python: look the row up
     * again after it. */
    if (PyDict_GET_SIZE(pending)
        && (raise_interference(pending, total) < 0
            || (rid = ledger_row(ledger, id_obj)) < 0)) {
        goto done;
    }
    if (!ledger->busy[rid] && total >= ledger->sense[rid]
        && (flip_sense(ledger, rid, 1) < 0
            || (rid = ledger_row(ledger, id_obj)) < 0)) {
        goto done;
    }
    if (power >= ledger->rx_thr[rid] && !ledger->transmitting[rid]) {
        double level = total - power;
        PyObject *row = PyList_New(2);
        PyObject *peak = row == NULL
            ? NULL : PyFloat_FromDouble(level > 0.0 ? level : 0.0);
        if (peak == NULL) {
            Py_XDECREF(row);
            goto done;
        }
        PyList_SET_ITEM(row, 0, Py_NewRef(power_obj));
        PyList_SET_ITEM(row, 1, peak);
        int failed = PyDict_SetItem(pending, tx, row) < 0
            || PyList_Append(decoding, id_obj) < 0;
        Py_DECREF(row);
        if (failed) {
            goto done;
        }
    }
    status = 0;
done:
    Py_DECREF(pending);
    return status;
}

/*
 * frame_start(stream, tx, receiver_ids, means, states, rho, innovation,
 *             ledger_columns)
 *
 * The fused frame start over one sender's fan-out: `receiver_ids` is its
 * list of receiver ids, `means` the array('d') of their mean powers and
 * `states` the array('d') of their links' (time, real, imag) triples;
 * `rho` and `innovation` are the frame's
 * CorrelatedRayleighFading.coefficients.  Each receiver's decode
 * threshold is its ledger row's rx_thr_mw.  Appends to tx.powers and
 * tx.decoding and sets tx.touched -- to `receiver_ids` itself when no
 * receiver was silenced -- as WirelessChannel._batched_start does.
 *
 * Every link's AR(1) step is drawn first, straight into the states'
 * buffer, and multiplied by its mean; both buffers are released before
 * the receiver bookkeeping calls any Python, just as the Python path
 * draws the whole batch before its receiver loop.  The ledger's packed
 * columns stay held for the whole call.
 */
static PyObject *
frame_start(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "frame_start takes 8 arguments");
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &StreamType)) {
        PyErr_SetString(PyExc_TypeError, "frame_start needs a kernel Stream");
        return NULL;
    }
    StreamObject *stream = (StreamObject *)args[0];
    PyObject *tx = args[1], *ids = args[2], *means = args[3],
             *states = args[4];
    if (check_list(ids, "receiver_ids") < 0) {
        return NULL;
    }
    double rho = PyFloat_AsDouble(args[5]);
    double innovation = PyFloat_AsDouble(args[6]);
    if (PyErr_Occurred()) {
        return NULL;
    }

    Ledger ledger;
    PyObject *now = NULL, *powers = NULL, *decoding = NULL, *touched = NULL,
             *result = NULL;
    double *power = NULL;
    int any_silenced = 0;
    if (unpack_ledger(args[7], &ledger) < 0) {
        goto done;
    }
    now = PyObject_GetAttr(tx, s_start_time);
    powers = now ? PyObject_GetAttr(tx, s_powers) : NULL;
    decoding = powers ? PyObject_GetAttr(tx, s_decoding) : NULL;
    if (decoding == NULL || check_list(powers, "tx.powers") < 0
        || check_list(decoding, "tx.decoding") < 0) {
        goto done;
    }
    double now_value = PyFloat_AsDouble(now);
    if (now_value == -1.0 && PyErr_Occurred()) {
        goto done;
    }

    Py_buffer mean_view, view;
    if (get_array(means, &mean_view, PyBUF_SIMPLE, "d", sizeof(double),
                  "means") < 0) {
        goto done;
    }
    if (get_array(states, &view, PyBUF_WRITABLE, "d", sizeof(double),
                  "link states (time, real, imag triples)") < 0) {
        PyBuffer_Release(&mean_view);
        goto done;
    }
    Py_ssize_t n = PyList_GET_SIZE(ids);
    n = Py_MIN(n, mean_view.len / (Py_ssize_t)sizeof(double));
    n = Py_MIN(n, view.len / (Py_ssize_t)(3 * sizeof(double)));
    power = PyMem_Malloc((n ? n : 1) * sizeof(double));
    if (power == NULL) {
        PyBuffer_Release(&view);
        PyBuffer_Release(&mean_view);
        PyErr_NoMemory();
        goto done;
    }
    const double *mean = mean_view.buf;
    double *link = view.buf;
    for (Py_ssize_t k = 0; k < n; k++, link += 3) {
        /* CorrelatedRayleighFading's AR(1) step: random.gauss's
         * Box-Muller pair, both halves, scaled by the innovation. */
        double x2pi = genrand_double(stream) * TWOPI;
        double g2rad = sqrt(-2.0 * log(1.0 - genrand_double(stream)));
        double real = rho * link[1] + (0.0 + (cos(x2pi) * g2rad) * innovation);
        double imag = rho * link[2] + (0.0 + (sin(x2pi) * g2rad) * innovation);
        link[0] = now_value;
        link[1] = real;
        link[2] = imag;
        power[k] = mean[k] * (real * real + imag * imag);
    }
    PyBuffer_Release(&view);
    PyBuffer_Release(&mean_view);

    for (Py_ssize_t k = 0; k < n; k++) {
        /* A callback may have shortened the list, as zip() would notice. */
        if (k >= PyList_GET_SIZE(ids)) {
            break;
        }
        if (power[k] <= 0.0) {
            /* Not touched, as in the batched pass's filter. */
            any_silenced = 1;
            continue;
        }
        PyObject *power_obj = PyFloat_FromDouble(power[k]);
        if (power_obj == NULL) {
            goto done;
        }
        PyObject *id_obj = Py_NewRef(PyList_GET_ITEM(ids, k));
        int status = PyList_Append(powers, power_obj);
        if (status == 0) {
            status = start_receiver(&ledger, tx, id_obj, power_obj, power[k],
                                    decoding);
        }
        Py_DECREF(id_obj);
        Py_DECREF(power_obj);
        if (status < 0) {
            goto done;
        }
    }
    if (!any_silenced) {
        touched = Py_NewRef(ids);
    }
    else {
        touched = PyList_New(0);
        if (touched == NULL) {
            goto done;
        }
        for (Py_ssize_t k = 0; k < PyList_GET_SIZE(ids); k++) {
            if (k < n && power[k] <= 0.0) {
                continue;
            }
            if (PyList_Append(touched, PyList_GET_ITEM(ids, k)) < 0) {
                goto done;
            }
        }
    }
    if (PyObject_SetAttr(tx, s_touched, touched) < 0) {
        goto done;
    }
    result = Py_NewRef(Py_None);
done:
    release_ledger(&ledger);
    PyMem_Free(power);
    Py_XDECREF(touched);
    Py_XDECREF(decoding);
    Py_XDECREF(powers);
    Py_XDECREF(now);
    return result;
}

/* ------------------------------------------------------------------ */
/* The frame end                                                       */

/* Take a finished frame's power off each touched receiver's ledger row
 * and pass busy -> idle flips to a waiting MAC, as
 * WirelessChannel._withdraw does. */
static int
withdraw(const Ledger *ledger, PyObject *touched_obj, PyObject *powers_obj)
{
    PyObject *touched = PySequence_Fast(touched_obj,
                                        "touched must be a sequence");
    PyObject *powers = touched
        ? PySequence_Fast(powers_obj, "powers must be a sequence") : NULL;
    int status = -1;
    if (powers == NULL) {
        goto done;
    }
    /* A callback may shorten a list, as zip() would notice. */
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(touched)
                           && k < PySequence_Fast_GET_SIZE(powers); k++) {
        PyObject *id_obj = PySequence_Fast_GET_ITEM(touched, k);
        double power = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(powers, k));
        if (power == -1.0 && PyErr_Occurred()) {
            goto done;
        }
        Py_INCREF(id_obj);
        Py_ssize_t rid = ledger_row(ledger, id_obj);
        Py_DECREF(id_obj);
        if (rid < 0) {
            goto done;
        }
        long count = ledger->on_air[rid] - 1;
        ledger->on_air[rid] = count;
        double total = 0.0;
        if (count) {
            total = ledger->power[rid] - power;
            if (total < 0.0) {  /* guard against float drift */
                total = 0.0;
            }
        }
        ledger->power[rid] = total;
        if (ledger->busy[rid] && !ledger->transmitting[rid]
            && total < ledger->sense[rid] && flip_sense(ledger, rid, 0) < 0) {
            goto done;
        }
    }
    status = 0;
done:
    Py_XDECREF(powers);
    Py_XDECREF(touched);
    return status;
}

/* counts[fate] += 1.0, on a node's counters.counts */
static int
tally(PyObject *counts, PyObject *fate)
{
    PyObject *value = PyObject_GetItem(counts, fate);
    PyObject *sum = value ? PyNumber_InPlaceAdd(value, one) : NULL;
    int status = sum == NULL ? -1 : PyObject_SetItem(counts, fate, sum);
    Py_XDECREF(sum);
    Py_XDECREF(value);
    return status;
}

/* Decide receiver `id_obj`'s reception of `tx`: pop its row, apply the
 * stock rule, tally the fate and deliver a decoded frame. */
static int
decide_one(const Ledger *ledger, PyObject *tx, PyObject *id_obj,
           PyObject *packet, PyObject *sender_id, PyObject *dest_id)
{
    Py_ssize_t rid = ledger_row(ledger, id_obj);
    if (rid < 0) {
        return -1;
    }
    PyObject *pending = PyList_GET_ITEM(ledger->pending, rid);
    if (!PyDict_Check(pending)) {
        PyErr_SetString(PyExc_TypeError, "pending_receptions must be a dict");
        return -1;
    }
    PyObject *row = PyDict_GetItemWithError(pending, tx);
    if (row == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_SetObject(PyExc_KeyError, tx);
        }
        return -1;
    }
    if (check_row(row) < 0) {
        return -1;
    }
    PyObject *signal_obj = Py_NewRef(PyList_GET_ITEM(row, 0));
    PyObject *peak_obj = Py_NewRef(PyList_GET_ITEM(row, 1));
    PyObject *node = NULL, *counts = NULL;
    int status = -1;
    if (PyDict_DelItem(pending, tx) < 0) {
        goto done;
    }
    double signal = held_double(signal_obj);
    double peak = PyErr_Occurred() ? 0.0 : held_double(peak_obj);
    if (PyErr_Occurred() || (rid = ledger_row(ledger, id_obj)) < 0) {
        goto done;
    }
    double rx_thr = ledger->rx_thr[rid];
    double noise = ledger->noise[rid];
    double sinr = ledger->sinr[rid];
    node = Py_NewRef(PyList_GET_ITEM(ledger->nodes, rid));
    counts = Py_NewRef(PyList_GET_ITEM(ledger->counts, rid));
    /* ReceptionModel.decide, then the fates in _decide's order. */
    PyObject *fate;
    int decoded = 0;
    if (signal <= 0.0) {
        fate = s_rx_failed_half_duplex;
    }
    else if (signal >= rx_thr && signal / (noise + peak) >= sinr) {
        fate = s_rx_ok;
        decoded = 1;
    }
    else {
        fate = s_rx_failed_collision;
    }
    if (tally(counts, fate) < 0) {
        goto done;
    }
    if (decoded) {
        PyObject *call[5] = {node, packet, sender_id, dest_id, signal_obj};
        PyObject *delivered = PyObject_VectorcallMethod(s_deliver, call, 5,
                                                        NULL);
        if (delivered == NULL) {
            goto done;
        }
        Py_DECREF(delivered);
    }
    status = 0;
done:
    Py_XDECREF(counts);
    Py_XDECREF(node);
    Py_DECREF(peak_obj);
    Py_DECREF(signal_obj);
    return status;
}

/* Every reception in tx.decoding, in order; each row is popped just
 * before its decision, so a frame a delivery starts still raises the
 * interference of the receivers after it. */
static int
decide_all(const Ledger *ledger, PyObject *tx)
{
    PyObject *decoding = PyObject_GetAttr(tx, s_decoding);
    if (decoding == NULL || check_list(decoding, "tx.decoding") < 0) {
        Py_XDECREF(decoding);
        return -1;
    }
    PyObject *packet = NULL, *sender_id = NULL, *dest_id = NULL;
    int status = 0;
    if (PyList_GET_SIZE(decoding)) {
        packet = PyObject_GetAttr(tx, s_packet);
        sender_id = packet ? PyObject_GetAttr(tx, s_sender_id) : NULL;
        dest_id = sender_id ? PyObject_GetAttr(tx, s_dest_id) : NULL;
        status = dest_id == NULL ? -1 : 0;
    }
    /* A delivery may run any Python: the size is read every round. */
    for (Py_ssize_t k = 0; status == 0 && k < PyList_GET_SIZE(decoding); k++) {
        PyObject *id_obj = Py_NewRef(PyList_GET_ITEM(decoding, k));
        status = decide_one(ledger, tx, id_obj, packet, sender_id, dest_id);
        Py_DECREF(id_obj);
    }
    Py_XDECREF(dest_id);
    Py_XDECREF(sender_id);
    Py_XDECREF(packet);
    Py_DECREF(decoding);
    return status;
}

/*
 * frame_end(tx, ledger_columns, decide)
 *
 * The finished frame `tx`'s withdrawal (WirelessChannel._withdraw over
 * tx.touched and tx.powers); then, when `decide` is true, its decisions
 * (WirelessChannel._decide with the stock rule) over tx.decoding.
 */
static PyObject *
frame_end(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "frame_end takes 3 arguments");
        return NULL;
    }
    PyObject *tx = args[0];
    int decide = PyObject_IsTrue(args[2]);
    if (decide < 0) {
        return NULL;
    }
    Ledger ledger;
    if (unpack_ledger(args[1], &ledger) < 0) {
        release_ledger(&ledger);
        return NULL;
    }
    PyObject *touched = PyObject_GetAttr(tx, s_touched);
    PyObject *powers = touched ? PyObject_GetAttr(tx, s_powers) : NULL;
    int failed = powers == NULL || withdraw(&ledger, touched, powers) < 0
        || (decide && decide_all(&ledger, tx) < 0);
    Py_XDECREF(powers);
    Py_XDECREF(touched);
    release_ledger(&ledger);
    return failed ? NULL : Py_NewRef(Py_None);
}

/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"frame_start", (PyCFunction)(void (*)(void))frame_start, METH_FASTCALL,
     "The frame start with each link's AR(1) step drawn in the pass."},
    {"frame_end", (PyCFunction)(void (*)(void))frame_end, METH_FASTCALL,
     "The frame-end withdrawal, then the decisions, of one frame."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_rxkernel",
    .m_doc = "Compiled receiver passes of the PHY.",
    .m_size = -1,
    .m_methods = module_methods,
};

#define INTERN(var, text)                                   \
    do {                                                    \
        if ((var = PyUnicode_InternFromString(text)) == NULL) \
            return NULL;                                    \
    } while (0)

PyMODINIT_FUNC
PyInit__rxkernel(void)
{
    INTERN(s_awaited_sense, "awaited_sense");
    INTERN(s_on_medium_state, "on_medium_state");
    INTERN(s_touched, "touched");
    INTERN(s_powers, "powers");
    INTERN(s_decoding, "decoding");
    INTERN(s_start_time, "start_time");
    INTERN(s_packet, "packet");
    INTERN(s_sender_id, "sender_id");
    INTERN(s_dest_id, "dest_id");
    INTERN(s_deliver, "deliver");
    INTERN(s_rx_ok, "phy.rx_ok");
    INTERN(s_rx_failed_half_duplex, "phy.rx_failed_half_duplex");
    INTERN(s_rx_failed_collision, "phy.rx_failed_collision");
    if ((one = PyFloat_FromDouble(1.0)) == NULL) {
        return NULL;
    }
    if (PyType_Ready(&StreamType) < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&StreamType);
    if (PyModule_AddObject(module, "Stream", (PyObject *)&StreamType) < 0) {
        Py_DECREF(&StreamType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
