/*
 * The compiled receiver kernel of the scalar PHY.
 *
 * frame_start is WirelessChannel._fused_start (repro.net.channel) and
 * frame_end is WirelessChannel._withdraw, operation for operation, so a
 * run is bit-identical to the pure-Python passes: each link's AR(1) step
 * drawn from the channel's MT19937, the faded power added to the
 * receiver, the peak interference of its pending receptions raised,
 * idle -> busy carrier-sense flips passed to a waiting MAC, decode
 * starts; at the frame's end its power withdrawn and busy -> idle flips
 * passed on.
 *
 * Per-node state is the channel's PhyLedger: plain lists indexed by
 * node id (power, on-air count, sensed-busy, transmitting, sense
 * threshold, MAC, pending-reception dict, node), read and written with
 * PyList_GET_ITEM/PyList_SetItem.  Python is called only where the
 * Python pass calls it: the MAC's on_medium_state on a flip it awaits,
 * the Reception constructor on a decode start.  Receptions are still
 * reached through attribute access.  A callback may run arbitrary
 * Python, so every list index is checked against the list's current
 * size, and every borrowed object a callback could release is held.
 * The decisions and deliveries stay in Python (about 1 % of a paper run
 * in C, within noise).
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

static PyObject *s_awaited_sense, *s_on_medium_state, *s_signal_mw,
    *s_peak_interference_mw, *s_touched, *s_powers, *s_decoding,
    *s_start_time, *s_end_time;

/* PhyLedger.columns, in its order. */
enum { L_POWER, L_ON_AIR, L_BUSY, L_TRANSMITTING, L_SENSE, L_MACS,
       L_PENDING, L_NODES, L_COLUMNS };

typedef struct {
    PyObject *col[L_COLUMNS];  /* borrowed from the columns tuple */
} Ledger;

static int
unpack_ledger(PyObject *columns, Ledger *ledger)
{
    if (!PyTuple_Check(columns) || PyTuple_GET_SIZE(columns) != L_COLUMNS) {
        PyErr_Format(PyExc_TypeError,
                     "the ledger must be a tuple of %d columns", L_COLUMNS);
        return -1;
    }
    for (int c = 0; c < L_COLUMNS; c++) {
        PyObject *column = PyTuple_GET_ITEM(columns, c);
        if (!PyList_Check(column)) {
            PyErr_Format(PyExc_TypeError, "ledger column %d must be a list", c);
            return -1;
        }
        ledger->col[c] = column;
    }
    return 0;
}

/* The node id in `id_obj`, checked against every column's current size;
 * -1 with an exception set when it is not a row of the ledger. */
static Py_ssize_t
ledger_row(const Ledger *ledger, PyObject *id_obj)
{
    Py_ssize_t rid = PyLong_AsSsize_t(id_obj);
    if (rid == -1 && PyErr_Occurred()) {
        return -1;
    }
    for (int c = 0; c < L_COLUMNS; c++) {
        if (rid < 0 || rid >= PyList_GET_SIZE(ledger->col[c])) {
            PyErr_Format(PyExc_IndexError,
                         "receiver id %zd is not a row of the ledger", rid);
            return -1;
        }
    }
    return rid;
}

static inline PyObject *
cell(const Ledger *ledger, int column, Py_ssize_t rid)
{
    return PyList_GET_ITEM(ledger->col[column], rid);
}

/* column[rid] = value, stealing the reference to value (NULL fails). */
static int
set_cell(const Ledger *ledger, int column, Py_ssize_t rid, PyObject *value)
{
    if (value == NULL) {
        return -1;
    }
    return PyList_SetItem(ledger->col[column], rid, value);
}

/* busy[rid] = busy; then macs[rid].on_medium_state(busy) when that MAC
 * waits for exactly this state (awaited_sense is busy).  The caller
 * re-checks `rid` afterwards: the callback may resize a column. */
static int
flip_sense(const Ledger *ledger, Py_ssize_t rid, PyObject *busy)
{
    if (set_cell(ledger, L_BUSY, rid, Py_NewRef(busy)) < 0) {
        return -1;
    }
    PyObject *mac = Py_NewRef(cell(ledger, L_MACS, rid));
    PyObject *awaited = PyObject_GetAttr(mac, s_awaited_sense);
    int status = awaited == NULL ? -1 : 0;
    if (awaited == busy) {
        PyObject *done = PyObject_CallMethodOneArg(mac, s_on_medium_state, busy);
        status = done == NULL ? -1 : 0;
        Py_XDECREF(done);
    }
    Py_XDECREF(awaited);
    Py_DECREF(mac);
    return status;
}

static double
list_double(PyObject *list, Py_ssize_t k)
{
    return PyFloat_AsDouble(PyList_GET_ITEM(list, k));
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

static int
get_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL) {
        return -1;
    }
    double result = PyFloat_AsDouble(value);
    Py_DECREF(value);
    if (result == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    *out = result;
    return 0;
}

static int
set_double(PyObject *obj, PyObject *name, double value)
{
    PyObject *boxed = PyFloat_FromDouble(value);
    if (boxed == NULL) {
        return -1;
    }
    int status = PyObject_SetAttr(obj, name, boxed);
    Py_DECREF(boxed);
    return status;
}

/* For every pending reception at the receiver: raise its peak
 * interference to the total power minus its own signal. */
static int
raise_interference(PyObject *pending, double total)
{
    Py_ssize_t pos = 0;
    PyObject *key, *reception;
    while (PyDict_Next(pending, &pos, &key, &reception)) {
        double signal, peak;
        Py_INCREF(reception);
        int failed = get_double(reception, s_signal_mw, &signal) < 0
            || get_double(reception, s_peak_interference_mw, &peak) < 0
            || (total - signal > peak
                && set_double(reception, s_peak_interference_mw,
                              total - signal) < 0);
        Py_DECREF(reception);
        if (failed) {
            return -1;
        }
    }
    return 0;
}

/* One receiver's share of frame_start after its power is known: the
 * ledger update, interference, carrier sense and decode start. */
static int
start_receiver(const Ledger *ledger, PyObject *tx, PyObject *id_obj,
               PyObject *power_obj, double power, double threshold,
               PyObject *now, PyObject *end_time, PyObject *reception_type,
               PyObject *decoding)
{
    Py_ssize_t rid = ledger_row(ledger, id_obj);
    if (rid < 0) {
        return -1;
    }
    double current = PyFloat_AsDouble(cell(ledger, L_POWER, rid));
    long count = PyLong_AsLong(cell(ledger, L_ON_AIR, rid));
    if (PyErr_Occurred()) {
        return -1;
    }
    double total = current + power;
    if (set_cell(ledger, L_POWER, rid, PyFloat_FromDouble(total)) < 0
        || set_cell(ledger, L_ON_AIR, rid, PyLong_FromLong(count + 1)) < 0) {
        return -1;
    }
    PyObject *pending = Py_NewRef(cell(ledger, L_PENDING, rid));
    int status = -1;
    if (!PyDict_Check(pending)) {
        PyErr_SetString(PyExc_TypeError, "pending_receptions must be a dict");
        goto done;
    }
    /* A Reception's attribute access may run Python: look the row up
     * again after it. */
    if (PyDict_GET_SIZE(pending)
        && (raise_interference(pending, total) < 0
            || (rid = ledger_row(ledger, id_obj)) < 0)) {
        goto done;
    }
    int busy = PyObject_IsTrue(cell(ledger, L_BUSY, rid));
    double sense = PyFloat_AsDouble(cell(ledger, L_SENSE, rid));
    if (busy < 0 || PyErr_Occurred()) {
        goto done;
    }
    if (!busy && total >= sense
        && (flip_sense(ledger, rid, Py_True) < 0
            || (rid = ledger_row(ledger, id_obj)) < 0)) {
        goto done;
    }
    if (power >= threshold) {
        int transmitting = PyObject_IsTrue(cell(ledger, L_TRANSMITTING, rid));
        if (transmitting < 0) {
            goto done;
        }
        if (!transmitting) {
            PyObject *args[5] = {tx, id_obj, power_obj, now, end_time};
            PyObject *reception = PyObject_Vectorcall(reception_type, args, 5, NULL);
            if (reception == NULL) {
                goto done;
            }
            double level = total - power;
            int failed = PyDict_SetItem(pending, tx, reception) < 0
                || (level > 0.0
                    && set_double(reception, s_peak_interference_mw, level) < 0)
                || (rid = ledger_row(ledger, id_obj)) < 0
                || PyList_Append(decoding, cell(ledger, L_NODES, rid)) < 0;
            Py_DECREF(reception);
            if (failed) {
                goto done;
            }
        }
    }
    status = 0;
done:
    Py_DECREF(pending);
    return status;
}

/*
 * frame_start(stream, tx, receiver_ids, means, thresholds, states, rho,
 *             innovation, reception_type, ledger_columns)
 *
 * The fused frame start: `states`, `rho` and `innovation` are
 * CorrelatedRayleighFading.uniform_row's.  Appends to tx.powers and
 * tx.decoding and sets tx.touched -- to `receiver_ids` itself when no
 * receiver was silenced -- as WirelessChannel._fused_start does.
 */
static PyObject *
frame_start(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError, "frame_start takes 10 arguments");
        return NULL;
    }
    if (!PyObject_TypeCheck(args[0], &StreamType)) {
        PyErr_SetString(PyExc_TypeError, "frame_start needs a kernel Stream");
        return NULL;
    }
    StreamObject *stream = (StreamObject *)args[0];
    PyObject *tx = args[1], *ids = args[2], *means = args[3],
             *thresholds = args[4], *states = args[5],
             *reception_type = args[8];
    Ledger ledger;
    if (check_list(ids, "receiver_ids") < 0 || check_list(means, "means") < 0
        || check_list(thresholds, "thresholds") < 0
        || check_list(states, "states") < 0
        || unpack_ledger(args[9], &ledger) < 0) {
        return NULL;
    }
    double rho = PyFloat_AsDouble(args[6]);
    double innovation = PyFloat_AsDouble(args[7]);
    if (PyErr_Occurred()) {
        return NULL;
    }

    PyObject *now = NULL, *end_time = NULL, *powers = NULL, *decoding = NULL,
             *touched = NULL, *result = NULL;
    char *silenced = NULL;
    int any_silenced = 0;
    now = PyObject_GetAttr(tx, s_start_time);
    end_time = now ? PyObject_GetAttr(tx, s_end_time) : NULL;
    powers = end_time ? PyObject_GetAttr(tx, s_powers) : NULL;
    decoding = powers ? PyObject_GetAttr(tx, s_decoding) : NULL;
    if (decoding == NULL || check_list(powers, "tx.powers") < 0
        || check_list(decoding, "tx.decoding") < 0) {
        goto done;
    }

    Py_ssize_t n = PyList_GET_SIZE(ids);
    n = Py_MIN(n, PyList_GET_SIZE(means));
    n = Py_MIN(n, PyList_GET_SIZE(thresholds));
    n = Py_MIN(n, PyList_GET_SIZE(states));
    silenced = PyMem_Calloc(n ? n : 1, 1);
    if (silenced == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t k = 0; k < n; k++) {
        /* A callback may have shortened a list, as zip() would notice. */
        if (k >= PyList_GET_SIZE(ids) || k >= PyList_GET_SIZE(means)
            || k >= PyList_GET_SIZE(thresholds)
            || k >= PyList_GET_SIZE(states)) {
            break;
        }
        PyObject *state = PyList_GET_ITEM(states, k);
        if (!PyList_Check(state) || PyList_GET_SIZE(state) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "a link state must be a [time, real, imag] list");
            goto done;
        }
        double mean = list_double(means, k);
        double threshold = list_double(thresholds, k);
        double old_real = list_double(state, 1);
        double old_imag = list_double(state, 2);
        if (PyErr_Occurred()) {
            goto done;
        }
        /* CorrelatedRayleighFading's AR(1) step: random.gauss's
         * Box-Muller pair, both halves, scaled by the innovation. */
        double x2pi = genrand_double(stream) * TWOPI;
        double g2rad = sqrt(-2.0 * log(1.0 - genrand_double(stream)));
        double real = rho * old_real + (0.0 + (cos(x2pi) * g2rad) * innovation);
        double imag = rho * old_imag + (0.0 + (sin(x2pi) * g2rad) * innovation);
        PyObject *real_obj = PyFloat_FromDouble(real);
        PyObject *imag_obj = PyFloat_FromDouble(imag);
        if (real_obj == NULL || imag_obj == NULL) {
            Py_XDECREF(real_obj);
            Py_XDECREF(imag_obj);
            goto done;
        }
        Py_INCREF(now);
        PyList_SetItem(state, 0, now);
        PyList_SetItem(state, 1, real_obj);
        PyList_SetItem(state, 2, imag_obj);

        double power = mean * (real * real + imag * imag);
        if (power <= 0.0) {
            /* Not touched, as in the batched pass's filter. */
            silenced[k] = 1;
            any_silenced = 1;
            continue;
        }
        PyObject *power_obj = PyFloat_FromDouble(power);
        if (power_obj == NULL) {
            goto done;
        }
        PyObject *id_obj = Py_NewRef(PyList_GET_ITEM(ids, k));
        int status = PyList_Append(powers, power_obj);
        if (status == 0) {
            status = start_receiver(&ledger, tx, id_obj, power_obj, power,
                                    threshold, now, end_time, reception_type,
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
            if (k < n && silenced[k]) {
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
    PyMem_Free(silenced);
    Py_XDECREF(touched);
    Py_XDECREF(decoding);
    Py_XDECREF(powers);
    Py_XDECREF(end_time);
    Py_XDECREF(now);
    return result;
}

/* ------------------------------------------------------------------ */
/* The frame-end withdrawal                                            */

/*
 * frame_end(touched, powers, ledger_columns)
 *
 * Takes a finished frame's power off each touched receiver's ledger row
 * and passes busy -> idle flips to a waiting MAC, as
 * WirelessChannel._withdraw does.
 */
static PyObject *
frame_end(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "frame_end takes 3 arguments");
        return NULL;
    }
    Ledger ledger;
    if (unpack_ledger(args[2], &ledger) < 0) {
        return NULL;
    }
    PyObject *touched = PySequence_Fast(args[0], "touched must be a sequence");
    PyObject *powers = touched
        ? PySequence_Fast(args[1], "powers must be a sequence") : NULL;
    PyObject *result = NULL;
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
        Py_ssize_t rid = ledger_row(&ledger, id_obj);
        Py_DECREF(id_obj);
        if (rid < 0) {
            goto done;
        }
        long count = PyLong_AsLong(cell(&ledger, L_ON_AIR, rid)) - 1;
        if (PyErr_Occurred()
            || set_cell(&ledger, L_ON_AIR, rid, PyLong_FromLong(count)) < 0) {
            goto done;
        }
        double total = 0.0;
        if (count) {
            total = PyFloat_AsDouble(cell(&ledger, L_POWER, rid)) - power;
            if (PyErr_Occurred()) {
                goto done;
            }
            if (total < 0.0) {  /* guard against float drift */
                total = 0.0;
            }
        }
        if (set_cell(&ledger, L_POWER, rid, PyFloat_FromDouble(total)) < 0) {
            goto done;
        }
        int busy = PyObject_IsTrue(cell(&ledger, L_BUSY, rid));
        if (busy < 0) {
            goto done;
        }
        if (!busy) {
            continue;
        }
        int transmitting = PyObject_IsTrue(cell(&ledger, L_TRANSMITTING, rid));
        if (transmitting < 0) {
            goto done;
        }
        if (transmitting) {
            continue;
        }
        double sense = PyFloat_AsDouble(cell(&ledger, L_SENSE, rid));
        if (sense == -1.0 && PyErr_Occurred()) {
            goto done;
        }
        if (total < sense && flip_sense(&ledger, rid, Py_False) < 0) {
            goto done;
        }
    }
    result = Py_NewRef(Py_None);
done:
    Py_XDECREF(powers);
    Py_XDECREF(touched);
    return result;
}

/* ------------------------------------------------------------------ */

static PyMethodDef module_methods[] = {
    {"frame_start", (PyCFunction)(void (*)(void))frame_start, METH_FASTCALL,
     "The fused frame-start pass over one frame's receivers."},
    {"frame_end", (PyCFunction)(void (*)(void))frame_end, METH_FASTCALL,
     "The frame-end withdrawal over one frame's receivers."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_rxkernel",
    .m_doc = "Compiled receiver passes of the scalar PHY.",
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
    INTERN(s_signal_mw, "signal_mw");
    INTERN(s_peak_interference_mw, "peak_interference_mw");
    INTERN(s_touched, "touched");
    INTERN(s_powers, "powers");
    INTERN(s_decoding, "decoding");
    INTERN(s_start_time, "start_time");
    INTERN(s_end_time, "end_time");
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
