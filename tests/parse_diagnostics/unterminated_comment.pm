main(input float x, output float y) {
    y = x; /* this comment never ends
}
